package mbx

import (
	"strings"

	"pvn/internal/middlebox"
)

// PrefetchEngine is the active half of the paper's prefetching story
// (§4): "run code on the middlebox that prefetches content to move it
// closer to users, without consuming device resources." It watches HTML
// responses flow past, extracts the subresources the page will need
// (href/src links), fetches them upstream via the host-supplied Fetch
// callback, and populates the Prefetcher cache — all on middlebox time
// and bytes, none on the device's.
type PrefetchEngine struct {
	// Cache receives the prefetched resources.
	Cache *Prefetcher
	// Fetch retrieves a resource from upstream; ok=false means
	// unavailable. Supplied by the PVN host.
	Fetch func(host, path string) (body []byte, ok bool)
	// MaxPerPage bounds prefetches triggered by one response (resource
	// fairness, §3.3). Zero defaults to 16.
	MaxPerPage int

	// Prefetched counts resources fetched into the cache.
	Prefetched int64
	// Skipped counts links not fetched (cross-host, cache hit, cap).
	Skipped int64
}

// NewPrefetchEngine builds an engine over a cache and fetch function.
func NewPrefetchEngine(cache *Prefetcher, fetch func(string, string) ([]byte, bool)) *PrefetchEngine {
	return &PrefetchEngine{Cache: cache, Fetch: fetch, MaxPerPage: 16}
}

// Name implements middlebox.Box.
func (e *PrefetchEngine) Name() string { return "prefetch-engine" }

// Process implements middlebox.Box: HTML responses trigger prefetching;
// nothing is modified or dropped.
func (e *PrefetchEngine) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	h := p.HTTP()
	if h == nil || h.IsRequest || len(h.Body) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	if !strings.HasPrefix(strings.ToLower(h.Header("Content-Type")), "text/html") {
		return data, middlebox.VerdictPass, nil
	}
	// The page's own host rides in the X-PVN-Host header our data plane
	// stamps, or defaults to the response source.
	host := h.Header("X-PVN-Host")
	if host == "" {
		if ip := p.IPv4(); ip != nil {
			host = ip.Src.String()
		}
	}
	links := ExtractLinks(string(h.Body))
	fetched := 0
	for _, link := range links {
		if fetched >= e.maxPerPage() {
			e.Skipped += int64(len(links) - fetched)
			break
		}
		lhost, lpath := splitLink(link, host)
		if lhost != host {
			e.Skipped++ // third-party: not ours to prefetch
			continue
		}
		if _, ok := e.Cache.cache[lhost+lpath]; ok {
			e.Skipped++
			continue
		}
		if e.Fetch == nil {
			e.Skipped++
			continue
		}
		body, ok := e.Fetch(lhost, lpath)
		if !ok {
			e.Skipped++
			continue
		}
		e.Cache.StoreResource(lhost, lpath, body)
		e.Prefetched++
		fetched++
	}
	return data, middlebox.VerdictPass, nil
}

func (e *PrefetchEngine) maxPerPage() int {
	if e.MaxPerPage <= 0 {
		return 16
	}
	return e.MaxPerPage
}

// ExtractLinks returns the href/src attribute values found in an HTML
// document, in order of appearance, without duplicates.
func ExtractLinks(html string) []string {
	var out []string
	seen := map[string]bool{}
	lower := strings.ToLower(html)
	for _, attr := range []string{`href="`, `src="`} {
		pos := 0
		for {
			i := strings.Index(lower[pos:], attr)
			if i < 0 {
				break
			}
			start := pos + i + len(attr)
			end := strings.IndexByte(html[start:], '"')
			if end < 0 {
				break
			}
			link := html[start : start+end]
			pos = start + end
			if link == "" || strings.HasPrefix(link, "#") || strings.HasPrefix(lower[start:start+end], "javascript:") {
				continue
			}
			if !seen[link] {
				seen[link] = true
				out = append(out, link)
			}
		}
	}
	return out
}

// splitLink resolves a link to (host, path): absolute http URLs keep
// their own host; everything else is relative to pageHost.
func splitLink(link, pageHost string) (host, path string) {
	l := link
	for _, scheme := range []string{"http://", "https://"} {
		if strings.HasPrefix(strings.ToLower(l), scheme) {
			l = l[len(scheme):]
			slash := strings.IndexByte(l, '/')
			if slash < 0 {
				return l, "/"
			}
			return l[:slash], l[slash:]
		}
	}
	if !strings.HasPrefix(l, "/") {
		l = "/" + l
	}
	return pageHost, l
}
