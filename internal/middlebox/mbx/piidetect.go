package mbx

import (
	"bytes"
	"strings"
	"sync"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// PIIMode selects what PIIDetect does on a finding.
type PIIMode string

// PII handling modes (§4 "Detecting and Blocking PII": "provide users the
// option to block or modify them").
const (
	PIIAlert  PIIMode = "alert"  // report only
	PIIBlock  PIIMode = "block"  // drop the packet
	PIIRedact PIIMode = "redact" // rewrite the value out of the payload
)

// PIIDetect scans unencrypted application payloads for personally
// identifiable information: user-specified secrets (passwords, device
// IDs) and structural patterns (email addresses, phone-like digit runs,
// GPS coordinates). It reproduces the in-network leg of ReCon [30].
type PIIDetect struct {
	Mode PIIMode
	// Secrets are user-provided exact strings to protect, matched
	// ignoring ASCII case. Fixed by NewPIIDetect.
	Secrets []string
	// folded[i] is Secrets[i] case-folded, once per instance.
	folded [][]byte
	// DetectPatterns enables the structural detectors.
	DetectPatterns bool

	// Findings counts detections; Redactions counts rewritten packets.
	Findings, Redactions, Blocked int64
}

// NewPIIDetect builds a detector. Empty mode defaults to alert-only.
func NewPIIDetect(mode PIIMode, secrets []string) *PIIDetect {
	if mode == "" {
		mode = PIIAlert
	}
	d := &PIIDetect{Mode: mode, Secrets: secrets, DetectPatterns: true, folded: make([][]byte, len(secrets))}
	for i, sec := range secrets {
		d.folded[i] = foldASCII(nil, sec)
	}
	return d
}

// Name implements middlebox.Box.
func (d *PIIDetect) Name() string { return "pii-detect" }

// scanScratch is the working memory of one scan: the text scanned and
// its case-folded copy. It is pooled per worker, never held per
// instance or per owner: a host keeps thousands of resident detectors
// and runs a handful at a time.
type scanScratch struct{ text, lower []byte }

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scanText returns what the detectors read. For HTTP that is the whole
// message, assembled in sc: PII leaks ride in paths and headers as often
// as bodies, and the parts are joined so a token that straddles two of
// them is still found. Anything else is scanned where it lies.
func (sc *scanScratch) scanText(p *packet.Packet) []byte {
	payload := p.ApplicationPayload()
	h := p.HTTP()
	if h == nil {
		return payload
	}
	t := append(sc.text[:0], h.Method...)
	t = append(t, ' ')
	t = append(t, h.Path...)
	t = append(t, ' ')
	t = append(t, payload...)
	for _, hd := range h.Headers {
		t = append(t, ' ')
		t = append(t, hd.Name...)
		t = append(t, ": "...)
		t = append(t, hd.Value...)
	}
	sc.text = t
	return t
}

// foldASCII appends src to dst with A-Z lowered. The fold is byte for
// byte, so an offset into the result is an offset into src whatever
// else src holds (strings.ToLower changes the length of non-ASCII and
// invalid UTF-8 text).
func foldASCII[S ~string | ~[]byte](dst []byte, src S) []byte {
	n := len(dst)
	dst = append(dst, src...)
	for i, c := range dst[n:] {
		if 'A' <= c && c <= 'Z' {
			dst[n+i] = c + ('a' - 'A')
		}
	}
	return dst
}

// Process implements middlebox.Box.
func (d *PIIDetect) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	if p.TLS() != nil {
		// Encrypted: out of scope for the in-network detector (the
		// paper routes these to trusted execution instead, Fig 1c).
		return data, middlebox.VerdictPass, nil
	}
	sc := scanPool.Get().(*scanScratch)
	found := d.scan(sc, sc.scanText(p))
	scanPool.Put(sc)
	if len(found) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	d.Findings += int64(len(found))
	for _, f := range found {
		ctx.Alert("pii-leak", f)
	}

	switch d.Mode {
	case PIIBlock:
		d.Blocked++
		return nil, middlebox.VerdictDrop, nil
	case PIIRedact:
		out := d.redact(p, found)
		if out != nil {
			d.Redactions++
			return out, middlebox.VerdictPass, nil
		}
		// Could not rewrite safely: block rather than leak.
		d.Blocked++
		return nil, middlebox.VerdictDrop, nil
	default:
		return data, middlebox.VerdictPass, nil
	}
}

// scan returns descriptions of each PII hit in text, using sc for the
// folded copy. It allocates only when there is a finding, and findings
// are copies: nothing returned points into sc.
func (d *PIIDetect) scan(sc *scanScratch, text []byte) []string {
	if len(text) == 0 {
		return nil
	}
	var found []string
	sc.lower = foldASCII(sc.lower[:0], text)
	for i, sec := range d.folded {
		if len(sec) > 0 && bytes.Contains(sc.lower, sec) {
			found = append(found, "secret:"+d.Secrets[i])
		}
	}
	if d.DetectPatterns {
		if e := findEmail(text); e != nil {
			found = append(found, "email:"+string(e))
		}
		if ph := findPhone(text); ph != nil {
			found = append(found, "phone:"+string(ph))
		}
		if g := findGPS(sc.lower); g != nil {
			found = append(found, "gps:"+string(g))
		}
	}
	return found
}

// redact rewrites the HTTP body, replacing each finding's literal value
// with asterisks, and re-serializes the packet with fresh checksums. It
// returns nil when the packet is not rewritable HTTP.
func (d *PIIDetect) redact(p *packet.Packet, found []string) []byte {
	h := p.HTTP()
	ip := p.IPv4()
	t := p.TCP()
	if h == nil || ip == nil || t == nil {
		return nil
	}
	body := string(h.Body)
	path := h.Path
	for _, f := range found {
		i := strings.IndexByte(f, ':')
		val := f[i+1:]
		mask := strings.Repeat("*", len(val))
		body = replaceFold(body, val, mask)
		path = replaceFold(path, val, mask)
	}
	nh := *h
	nh.Body = []byte(body)
	nh.Path = path

	nip := &packet.IPv4{TOS: ip.TOS, ID: ip.ID, TTL: ip.TTL, Protocol: ip.Protocol, Src: ip.Src, Dst: ip.Dst}
	nt := &packet.TCP{SrcPort: t.SrcPort, DstPort: t.DstPort, Seq: t.Seq, Ack: t.Ack, Flags: t.Flags, Window: t.Window}
	nt.SetNetworkLayerForChecksum(nip)
	out, err := packet.SerializeToBytes(nip, nt, &nh)
	if err != nil {
		return nil
	}
	return out
}

// replaceFold replaces every occurrence of old in s, ignoring ASCII
// case, with new.
func replaceFold(s, old, new string) string {
	if old == "" {
		return s
	}
	var b strings.Builder
	ls, lo := foldASCII(nil, s), foldASCII(nil, old)
	for {
		i := bytes.Index(ls, lo)
		if i < 0 {
			b.WriteString(s)
			return b.String()
		}
		b.WriteString(s[:i])
		b.WriteString(new)
		s, ls = s[i+len(old):], ls[i+len(old):]
	}
}

// findEmail returns the first email-shaped token, or nil.
func findEmail(s []byte) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] != '@' {
			continue
		}
		start := i
		for start > 0 && isEmailLocal(s[start-1]) {
			start--
		}
		end := i + 1
		dots := 0
		for end < len(s) && (isAlnum(s[end]) || s[end] == '.' || s[end] == '-') {
			if s[end] == '.' {
				dots++
			}
			end++
		}
		// Trim a trailing dot (sentence punctuation).
		for end > i+1 && s[end-1] == '.' {
			end--
			dots--
		}
		if start < i && dots >= 1 && end > i+3 {
			return s[start:end]
		}
	}
	return nil
}

func isEmailLocal(c byte) bool {
	return isAlnum(c) || c == '.' || c == '_' || c == '-' || c == '+'
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// findPhone returns the first run of 10-11 digits (allowing separators),
// or nil.
func findPhone(s []byte) []byte {
	i := 0
	for i < len(s) {
		if s[i] < '0' || s[i] > '9' {
			i++
			continue
		}
		digits := 0
		j := i
		for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '-' || s[j] == ' ' || s[j] == '.') {
			if s[j] >= '0' && s[j] <= '9' {
				digits++
			} else if digits == 0 {
				break
			}
			j++
		}
		// Trim trailing separators.
		for j > i && (s[j-1] == '-' || s[j-1] == ' ' || s[j-1] == '.') {
			j--
		}
		if digits >= 10 && digits <= 11 {
			return s[i:j]
		}
		if j == i {
			j++
		}
		i = j
	}
	return nil
}

// findGPS detects "lat=...&lon=..."-style coordinate pairs, the common
// mobile-app location leak shape, in case-folded text.
func findGPS(lower []byte) []byte {
	latIdx := bytes.Index(lower, []byte("lat="))
	lonIdx := bytes.Index(lower, []byte("lon="))
	if lonIdx < 0 {
		lonIdx = bytes.Index(lower, []byte("lng="))
	}
	if latIdx >= 0 && lonIdx >= 0 {
		end := lonIdx + 4
		for end < len(lower) && (lower[end] >= '0' && lower[end] <= '9' || lower[end] == '.' || lower[end] == '-') {
			end++
		}
		start := latIdx
		if lonIdx < start {
			start = lonIdx
		}
		return lower[start:end]
	}
	return nil
}
