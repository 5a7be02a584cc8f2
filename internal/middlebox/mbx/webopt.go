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
	v := ctx.HTTP(data)
	if v == nil || v.IsRequest || len(v.Body) < c.MinBytes || !compressible(string(v.Header("Content-Type"))) {
		return data, middlebox.VerdictPass, nil
	}
	if len(v.Header("Content-Encoding")) != 0 {
		return data, middlebox.VerdictPass, nil // already encoded
	}

	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return data, middlebox.VerdictPass, nil
	}
	if _, err := w.Write(v.Body); err != nil || w.Close() != nil {
		return data, middlebox.VerdictPass, nil
	}
	if buf.Len() >= len(v.Body) {
		return data, middlebox.VerdictPass, nil // incompressible after all
	}
	c.BytesIn += int64(len(v.Body))
	c.BytesOut += int64(buf.Len())

	return rewriteHTTP(data, v, buf.Bytes(),
		packet.HTTPHeader{Name: "Content-Encoding", Value: "deflate"},
		packet.HTTPHeader{Name: "Content-Length", Value: strconv.Itoa(buf.Len())}), middlebox.VerdictPass, nil
}

// rewriteHTTP returns a copy of data, the packet v is an HTTP view of,
// with body in place of v.Body and each header of set at its value,
// resealed, or data itself when the copy cannot be resealed. A header of
// set overwrites everything after the colon of the first header that
// HTTPView.Header would return for its name; one v lacks is added after
// the last header. v must have a body (the blank line ends its header
// block), and the names in set must differ.
func rewriteHTTP(data []byte, v *packet.HTTPView, body []byte, set ...packet.HTTPHeader) []byte {
	bodyAt := cap(data) - cap(v.Body)
	out := make([]byte, 0, len(data)+len(body))
	done, added := 0, uint64(0) // data[:done] is in out; bit j: set[j] is in too
	for _, hd := range v.Headers {
		j := slices.IndexFunc(set, func(s packet.HTTPHeader) bool {
			return len(hd.Name) <= 3*len(s.Name) && strings.EqualFold(string(hd.Name), s.Name)
		})
		if j >= 0 && added&(1<<j) == 0 {
			added |= 1 << j
			// An empty value has no offset, so the name's is the one
			// the line is found from.
			from := cap(data) - cap(hd.Name) + len(hd.Name)
			from += bytes.IndexByte(data[from:], ':') + 1
			out = append(append(append(out, data[done:from]...), ' '), set[j].Value...)
			done = from + bytes.Index(data[from:], []byte("\r\n"))
		}
	}
	out = append(out, data[done:bodyAt-2]...)
	for j, s := range set {
		if added&(1<<j) == 0 {
			out = append(append(append(append(out, s.Name...), ": "...), s.Value...), "\r\n"...)
		}
	}
	out = append(append(out, "\r\n"...), body...)
	if packet.Reseal(out) != nil {
		return data
	}
	return out
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
