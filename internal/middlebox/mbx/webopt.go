package mbx

import (
	"bytes"
	"compress/flate"
	"slices"
	"strconv"
	"strings"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// Compressor DEFLATE-compresses compressible HTTP response bodies in the
// network, the in-network analogue of data-compression proxies [1]: the
// constrained last-mile link carries fewer bytes, paid for with middlebox
// CPU instead of device CPU.
type Compressor struct {
	// MinBytes skips bodies smaller than this (compression overhead
	// would dominate). Defaults to 256.
	MinBytes int

	BytesIn, BytesOut int64
}

// NewCompressor builds a compressor.
func NewCompressor() *Compressor { return &Compressor{MinBytes: 256} }

// Name implements middlebox.Box.
func (c *Compressor) Name() string { return "compressor" }

// compressible reports whether a content type benefits from DEFLATE.
func compressible(ct string) bool {
	ct = strings.ToLower(ct)
	return strings.HasPrefix(ct, "text/") ||
		strings.Contains(ct, "json") ||
		strings.Contains(ct, "javascript") ||
		strings.Contains(ct, "xml")
}

// Process implements middlebox.Box.
func (c *Compressor) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	h := p.HTTP()
	if h == nil || h.IsRequest || len(h.Body) < c.MinBytes || !compressible(h.Header("Content-Type")) {
		return data, middlebox.VerdictPass, nil
	}
	if h.Header("Content-Encoding") != "" {
		return data, middlebox.VerdictPass, nil // already encoded
	}

	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return data, middlebox.VerdictPass, nil
	}
	if _, err := w.Write(h.Body); err != nil || w.Close() != nil {
		return data, middlebox.VerdictPass, nil
	}
	if buf.Len() >= len(h.Body) {
		return data, middlebox.VerdictPass, nil // incompressible after all
	}
	c.BytesIn += int64(len(h.Body))
	c.BytesOut += int64(buf.Len())

	nh := cloneHTTP(h)
	nh.Body = buf.Bytes()
	nh.SetHeader("Content-Encoding", "deflate")
	nh.SetHeader("Content-Length", strconv.Itoa(buf.Len()))

	out, err := packet.Reserialize(p, packet.Rewrite{Payload: &nh})
	if err != nil {
		return data, middlebox.VerdictPass, nil
	}
	return out, middlebox.VerdictPass, nil
}

// cloneHTTP copies h with a header list of its own, so a rewriting box's
// SetHeader calls leave the decode it shares with the other hops alone.
func cloneHTTP(h *packet.HTTP) packet.HTTP {
	nh := *h
	nh.Headers = slices.Clone(h.Headers)
	return nh
}

// Prefetcher caches HTTP responses at the middlebox and answers repeat
// requests from cache — the paper's "run code on the middlebox that
// prefetches content to move it closer to users, without consuming device
// resources" (§4). The cache key is Host+Path.
type Prefetcher struct {
	// CapBytes bounds cached body bytes. Defaults to 4 MiB.
	CapBytes int

	cache     map[string][]byte
	cacheSize int
	order     []string // FIFO eviction

	Hits, Misses int64
}

// NewPrefetcher builds an empty cache.
func NewPrefetcher() *Prefetcher {
	return &Prefetcher{CapBytes: 4 << 20, cache: make(map[string][]byte)}
}

// Name implements middlebox.Box.
func (f *Prefetcher) Name() string { return "prefetcher" }

// Lookup reports whether the named resource is cached (used by the PVN
// host to answer locally instead of forwarding upstream).
func (f *Prefetcher) Lookup(host, path string) ([]byte, bool) {
	body, ok := f.cache[host+path]
	if ok {
		f.Hits++
	} else {
		f.Misses++
	}
	return body, ok
}

// Process implements middlebox.Box: responses flowing through the chain
// populate the cache; requests are counted against it. Forwarding
// decisions stay with the data plane — the box never drops.
func (f *Prefetcher) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	h := p.HTTP()
	if h == nil {
		return data, middlebox.VerdictPass, nil
	}
	if !h.IsRequest && len(h.Body) > 0 && h.Header("X-PVN-Resource") != "" {
		f.store(h.Header("X-PVN-Resource"), h.Body)
	}
	return data, middlebox.VerdictPass, nil
}

func (f *Prefetcher) store(key string, body []byte) {
	if old, ok := f.cache[key]; ok {
		f.cacheSize -= len(old)
	} else {
		f.order = append(f.order, key)
	}
	f.cache[key] = append([]byte(nil), body...)
	f.cacheSize += len(body)
	for f.cacheSize > f.CapBytes && len(f.order) > 0 {
		victim := f.order[0]
		f.order = f.order[1:]
		f.cacheSize -= len(f.cache[victim])
		delete(f.cache, victim)
	}
}
