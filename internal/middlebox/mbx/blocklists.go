package mbx

import (
	"bytes"
	"strings"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// TrackerBlock drops traffic to known tracker/ad domains, matching the
// Host header of plaintext HTTP and the SNI of TLS connections (§4
// "tracker-blocking modules").
type TrackerBlock struct {
	// Domains holds lowercase blocked domains; subdomains are blocked
	// too.
	Domains []string

	Blocked int64
}

// NewTrackerBlock builds a blocker over the given domain list.
func NewTrackerBlock(domains []string) *TrackerBlock {
	out := make([]string, len(domains))
	for i, d := range domains {
		out[i] = strings.ToLower(d)
	}
	return &TrackerBlock{Domains: out}
}

// Name implements middlebox.Box.
func (t *TrackerBlock) Name() string { return "tracker-block" }

// Process implements middlebox.Box. A plaintext request's host is read
// through ctx.HTTP; only other traffic needs ctx.Packet's full decode.
func (t *TrackerBlock) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	if v := ctx.HTTP(data); v != nil {
		if !v.IsRequest {
			return data, middlebox.VerdictPass, nil
		}
		return blockHost(t, ctx, data, v.Host())
	}
	return blockHost(t, ctx, data, sniOf(ctx.Packet(data)))
}

// blockHost drops data if host is in a blocked domain. The host is
// matched in whatever case it arrived in, and lowered, into a string of
// its own, only for the alert of a blocked packet.
func blockHost[S ~string | ~[]byte](t *TrackerBlock, ctx *middlebox.Context, data []byte, host S) ([]byte, middlebox.Verdict, error) {
	if len(host) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	if !isASCII(host) {
		// Unicode lowering can change a host's length and map non-ASCII
		// letters onto ASCII ones: lower it first, as a block list would.
		return matchHost(t, ctx, data, strings.ToLower(string(host)))
	}
	return matchHost(t, ctx, data, host)
}

// matchHost is blockHost's match, on a host that is ASCII or lowered.
func matchHost[S ~string | ~[]byte](t *TrackerBlock, ctx *middlebox.Context, data []byte, host S) ([]byte, middlebox.Verdict, error) {
	for _, d := range t.Domains {
		if inDomain(host, d) {
			t.Blocked++
			ctx.Alert("tracker-blocked", strings.ToLower(string(host)))
			return nil, middlebox.VerdictDrop, nil
		}
	}
	return data, middlebox.VerdictPass, nil
}

// inDomain reports whether host, with A-Z folded, is the lowercase domain
// or a subdomain of it.
func inDomain[S ~string | ~[]byte](host S, domain string) bool {
	n := len(host) - len(domain)
	if n < 0 || n > 0 && host[n-1] != '.' {
		return false
	}
	for i := 0; i < len(domain); i++ {
		c := host[n+i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != domain[i] {
			return false
		}
	}
	return true
}

// isASCII reports whether s has no byte above 0x7F.
func isASCII[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// sniOf extracts the server name a TLS ClientHello carries, or "".
func sniOf(p *packet.Packet) string {
	if tl := p.TLS(); tl != nil {
		for _, rec := range tl.Records {
			if rec.Type != packet.TLSTypeHandshake {
				continue
			}
			hss, err := rec.Handshakes()
			if err != nil {
				continue
			}
			for _, hs := range hss {
				if hs.Type == packet.TLSHandshakeClientHello {
					if ch, err := packet.ParseClientHello(hs.Body); err == nil {
						return ch.ServerName
					}
				}
			}
		}
	}
	return ""
}

// MalwareScan drops packets whose application payload contains a known
// signature — the "detect malware in network traffic and block" function
// the paper argues ISPs do not reliably provide (§2.1).
type MalwareScan struct {
	// Signatures are raw byte patterns.
	Signatures [][]byte

	Detected int64
}

// NewMalwareScan builds a scanner over the given signature set.
func NewMalwareScan(signatures [][]byte) *MalwareScan {
	return &MalwareScan{Signatures: signatures}
}

// Name implements middlebox.Box.
func (m *MalwareScan) Name() string { return "malware-scan" }

// Process implements middlebox.Box.
func (m *MalwareScan) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	payload := p.ApplicationPayload()
	if h := p.HTTP(); h != nil {
		payload = h.Body
	}
	if len(payload) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	for _, sig := range m.Signatures {
		if len(sig) > 0 && bytes.Contains(payload, sig) {
			m.Detected++
			ctx.Alert("malware-detected", string(sig))
			return nil, middlebox.VerdictDrop, nil
		}
	}
	return data, middlebox.VerdictPass, nil
}
