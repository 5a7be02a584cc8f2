package mbx

import (
	"bytes"
	"encoding/binary"
	"math/bits"
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

// scanText returns what the detectors read of an HTTP message: the whole
// of it, assembled in sc, since PII leaks ride in paths and headers as
// often as bodies. The parts are joined so a token that straddles two of
// them is still found. Anything else is scanned where it lies.
func (sc *scanScratch) scanText(v *packet.HTTPView) []byte {
	t := append(sc.text[:0], v.Method...)
	t = append(t, ' ')
	t = append(t, v.Path...)
	t = append(t, ' ')
	t = append(t, v.Body...)
	for _, hd := range v.Headers {
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

// Process implements middlebox.Box. HTTP is read through ctx.HTTP; only
// other traffic, and a redaction, need ctx.Packet's full decode.
func (d *PIIDetect) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	v := ctx.HTTP(data)
	var text []byte
	if v == nil {
		p := ctx.Packet(data)
		if p.TLS() != nil {
			// Encrypted: out of scope for the in-network detector (the
			// paper routes these to trusted execution instead, Fig 1c).
			return data, middlebox.VerdictPass, nil
		}
		text = p.ApplicationPayload()
	}
	sc := scanPool.Get().(*scanScratch)
	if v != nil {
		text = sc.scanText(v)
	}
	found := d.scan(sc, text)
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
		out := d.redact(ctx.Packet(data), found)
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

// foldScan is foldASCII over a whole scan text in one pass that also
// reports the index of the first ASCII digit in src, or -1. It works a
// 64-bit word at a time (SWAR): per byte, the 0x80 bit of
// inRange(w, 'A', 'Z') shifted down to 0x20 is exactly the case bit to
// set, and inRange(w, '0', '9') marks digits.
func foldScan(dst, src []byte) ([]byte, int) {
	n := len(dst)
	dst = append(dst, src...)
	out, digit := dst[n:], -1
	i := 0
	for ; i+8 <= len(out); i += 8 {
		w := binary.LittleEndian.Uint64(out[i:])
		if upper := inRange(w, 'A', 'Z'); upper != 0 {
			binary.LittleEndian.PutUint64(out[i:], w|upper>>2)
		}
		if digit < 0 {
			if m := inRange(w, '0', '9'); m != 0 {
				digit = i + bits.TrailingZeros64(m)/8
			}
		}
	}
	for ; i < len(out); i++ {
		switch c := out[i]; {
		case 'A' <= c && c <= 'Z':
			out[i] = c + ('a' - 'A')
		case digit < 0 && '0' <= c && c <= '9':
			digit = i
		}
	}
	return dst, digit
}

const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// inRange returns w with the 0x80 bit set in every byte that is an ASCII
// byte in [lo, hi] (lo >= 1, hi < 0x80) and every other bit clear. Each
// byte's low 7 bits plus 0x80-lo carries into its 0x80 bit iff they are
// >= lo, plus 0x7f-hi iff they are > hi; neither sum can carry into the
// next byte. The last term drops bytes with the high bit already set:
// 0xC1..0xDA share their low 7 bits with 'A'..'Z'.
func inRange(w uint64, lo, hi byte) uint64 {
	low7 := w &^ msbs
	geLo := low7 + lsbs*uint64(0x80-lo)
	gtHi := low7 + lsbs*uint64(0x7f-hi)
	return geLo &^ gtHi &^ w & msbs
}

// scan returns descriptions of each PII hit in text, using sc for the
// folded copy. It allocates only when there is a finding, and findings
// are copies: nothing returned points into sc. Each structural detector
// starts where its pattern first can: the phone search at the first
// digit, the GPS search just before the first '='.
func (d *PIIDetect) scan(sc *scanScratch, text []byte) []string {
	if len(text) == 0 {
		return nil
	}
	var found []string
	var digit int
	sc.lower, digit = foldScan(sc.lower[:0], text)
	for i, sec := range d.folded {
		if len(sec) > 0 && bytes.Contains(sc.lower, sec) {
			found = append(found, "secret:"+d.Secrets[i])
		}
	}
	if d.DetectPatterns {
		if e := findEmail(text); e != nil {
			found = append(found, "email:"+string(e))
		}
		if digit >= 0 {
			if ph := findPhone(text[digit:]); ph != nil {
				found = append(found, "phone:"+string(ph))
			}
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
	if h == nil {
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

	out, err := packet.Reserialize(p, packet.Rewrite{Payload: &nh})
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
	for i := 0; ; i++ {
		at := bytes.IndexByte(s[i:], '@')
		if at < 0 {
			return nil
		}
		i += at
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
// mobile-app location leak shape, in case-folded text. Each key ends in
// '=', so none starts before 3 bytes ahead of the first '='.
func findGPS(lower []byte) []byte {
	eq := bytes.IndexByte(lower, '=')
	if eq < 0 {
		return nil
	}
	from := max(eq-3, 0)
	latIdx := index(lower, from, "lat=")
	lonIdx := index(lower, from, "lon=")
	if lonIdx < 0 {
		lonIdx = index(lower, from, "lng=")
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

// index is bytes.Index(s, sep) for a match known not to start before
// from.
func index(s []byte, from int, sep string) int {
	if i := bytes.Index(s[from:], []byte(sep)); i >= 0 {
		return from + i
	}
	return -1
}
