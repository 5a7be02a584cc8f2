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

// Process implements middlebox.Box.
func (t *TrackerBlock) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	host := hostOf(ctx.Packet(data))
	if host == "" {
		return data, middlebox.VerdictPass, nil
	}
	for _, d := range t.Domains {
		if host == d || isSubdomain(host, d) {
			t.Blocked++
			ctx.Alert("tracker-blocked", host)
			return nil, middlebox.VerdictDrop, nil
		}
	}
	return data, middlebox.VerdictPass, nil
}

// isSubdomain reports whether host ends in "."+domain, without building
// that string per packet.
func isSubdomain(host, domain string) bool {
	return len(host) > len(domain) && strings.HasSuffix(host, domain) && host[len(host)-len(domain)-1] == '.'
}

// hostOf extracts the destination hostname from HTTP Host or TLS SNI.
func hostOf(p *packet.Packet) string {
	if h := p.HTTP(); h != nil && h.IsRequest {
		return strings.ToLower(h.Host())
	}
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
						return strings.ToLower(ch.ServerName)
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
