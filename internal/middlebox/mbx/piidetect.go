package mbx

import (
	"bytes"
	"encoding/binary"
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

// scanScratch is the working memory of one scan: the text scanned, the
// case-folded copy of as much of it as some detector needed, and the
// byte counts the secret search took of it. It is pooled per worker,
// never held per instance or per owner: a host keeps thousands of
// resident detectors and runs a handful at a time.
type scanScratch struct {
	text []byte
	// lower is text[from:] folded, and from is len(text) until a
	// detector asks for a fold.
	lower []byte
	from  int
	// counts[c] is how often byte c occurs in the text, for each c whose
	// bit is set in counted.
	counted [4]uint64
	counts  [256]int
	// checks counts the candidate comparisons of the secret search.
	checks int
}

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
		dst[n+i] = lowerASCII(c)
	}
	return dst
}

// lowerASCII returns c with A-Z lowered.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// Process implements middlebox.Box. HTTP is read, and redacted, through
// ctx.HTTP; only other traffic needs ctx.Packet's full decode.
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
		if out := redact(data, v, found); out != nil {
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

// foldScan is foldASCII a 64-bit word at a time (SWAR): per byte, the
// 0x80 bit of inRange(w, 'A', 'Z') shifted down to 0x20 is exactly the
// case bit to set.
func foldScan(dst, src []byte) []byte {
	n := len(dst)
	dst = append(dst, src...)
	out := dst[n:]
	i := 0
	for ; i+8 <= len(out); i += 8 {
		w := binary.LittleEndian.Uint64(out[i:])
		if upper := inRange(w, 'A', 'Z'); upper != 0 {
			binary.LittleEndian.PutUint64(out[i:], w|upper>>2)
		}
	}
	for ; i < len(out); i++ {
		if c := out[i]; 'A' <= c && c <= 'Z' {
			out[i] = c + ('a' - 'A')
		}
	}
	return dst
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
// working memory. It allocates only when there is a finding, and
// findings are copies: nothing returned points into sc. No detector
// folds or searches the whole text unless it must: each secret is
// looked for at its rarest leading byte, the phone search probes every
// phoneMinDigits'th byte, and only the text from just before the first
// '=' is folded for the coordinate search.
func (d *PIIDetect) scan(sc *scanScratch, text []byte) []string {
	if len(text) == 0 {
		return nil
	}
	sc.lower, sc.from, sc.counted, sc.checks = sc.lower[:0], len(text), [4]uint64{}, 0
	var found []string
	for i, sec := range d.folded {
		if sc.containsFold(text, sec) {
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
		// Each coordinate key ends in '=', so none starts before 3
		// bytes ahead of the first one.
		if eq := bytes.IndexByte(text, '='); eq >= 0 {
			if g := findGPS(sc.fold(text, max(eq-3, 0))); g != nil {
				found = append(found, "gps:"+string(g))
			}
		}
	}
	return found
}

// fold returns text[from:] case-folded, folding it into sc.lower unless
// this scan already folded that much.
func (sc *scanScratch) fold(text []byte, from int) []byte {
	if from < sc.from {
		sc.lower, sc.from = foldScan(sc.lower[:0], text[from:]), from
	}
	return sc.lower[from-sc.from:]
}

// count returns how often byte c occurs in text, counting each byte
// value at most once per scan.
func (sc *scanScratch) count(text []byte, c byte) int {
	if bit := uint64(1) << (c & 63); sc.counted[c>>6]&bit == 0 {
		sc.counted[c>>6] |= bit
		sc.counts[c] = bytes.Count(text, []byte{c})
	}
	return sc.counts[c]
}

const (
	// anchorSpan is how many of a secret's leading bytes the search
	// weighs as its anchor.
	anchorSpan = 4
	// maxCandidates bounds the anchor hits the search checks one by
	// one; a secret whose anchor occurs more often than that, or in more
	// bytes of candidates than the text is long, is searched linearly
	// in the folded text instead.
	maxCandidates = 16
)

// containsFold reports whether text holds the case-folded secret sec,
// ignoring ASCII case. Of sec's first anchorSpan bytes it picks the one
// whose two cases occur least often in text (the first that occurs at
// most once will do) and compares sec only where that byte sits, so a
// message lacking any one of them costs only the counts. An anchor too
// common for that cuts over to bytes.Contains over the folded text, so
// a text saturated with anchors costs one linear pass.
func (sc *scanScratch) containsFold(text, sec []byte) bool {
	if len(sec) == 0 || len(sec) > len(text) {
		return false
	}
	at, n := 0, len(text)+1
	for j, c := range sec[:min(len(sec), anchorSpan)] {
		k := sc.count(text, c)
		if 'a' <= c && c <= 'z' {
			k += sc.count(text, c-('a'-'A'))
		}
		if k < n {
			at, n = j, k
		}
		if n <= 1 {
			break
		}
	}
	if n == 0 {
		return false
	}
	if n > maxCandidates || n*len(sec) > len(text) {
		return bytes.Contains(sc.fold(text, 0), sec)
	}
	c, up := sec[at], sec[at]-('a'-'A')
	if sc.count(text, c) > 0 && sc.matchAt(text, sec, at, c) {
		return true
	}
	return 'a' <= c && c <= 'z' && sc.count(text, up) > 0 && sc.matchAt(text, sec, at, up)
}

// matchAt reports whether sec matches text, ignoring ASCII case, at some
// occurrence of byte b that lines up with sec[at].
func (sc *scanScratch) matchAt(text, sec []byte, at int, b byte) bool {
	// An anchor at hi or later leaves no room for the rest of sec.
	hi := len(text) - len(sec) + at + 1
	for i := at; i < hi; i++ {
		k := bytes.IndexByte(text[i:hi], b)
		if k < 0 {
			return false
		}
		i += k
		sc.checks++
		if equalFold(text[i-at:], sec) {
			return true
		}
	}
	return false
}

// equalFold reports whether s begins with the case-folded sec, ignoring
// ASCII case.
func equalFold(s, sec []byte) bool {
	s = s[:len(sec)]
	for i, c := range sec {
		if b := s[i]; b != c && !('A' <= b && b <= 'Z' && b+('a'-'A') == c) {
			return false
		}
	}
	return true
}

// redact returns a copy of data, the packet v is an HTTP view of, with
// every occurrence of each finding's literal value in the path and the
// body masked by as many asterisks, or nil when data carries no HTTP
// message or the copy cannot be resealed.
func redact(data []byte, v *packet.HTTPView, found []string) []byte {
	if v == nil {
		return nil
	}
	out := append([]byte(nil), data...)
	for _, f := range found {
		val := f[strings.IndexByte(f, ':')+1:]
		for _, field := range [...][]byte{v.Path, v.Body} {
			if at := cap(data) - cap(field); len(field) > 0 {
				maskFold(out[at:at+len(field)], val)
			}
		}
	}
	if packet.Reseal(out) != nil {
		return nil
	}
	return out
}

// maskFold overwrites with '*' each occurrence of val in b, left to
// right, ignoring ASCII case byte for byte as foldASCII does.
func maskFold(b []byte, val string) {
	for i := 0; val != "" && i+len(val) <= len(b); i++ {
		k := 0
		for k < len(val) && lowerASCII(b[i+k]) == lowerASCII(val[k]) {
			k++
		}
		if k == len(val) {
			for k = range val {
				b[i+k] = '*'
			}
			i += len(val) - 1
		}
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

// phoneMinDigits is the fewest digits a phone-like run has.
const phoneMinDigits = 10

// findPhone returns the first run of 10-11 digits (allowing separators),
// or nil. A run is a maximal stretch of digits and the separators '-',
// ' ' and '.', and it is returned from its first digit to its last. One
// with phoneMinDigits digits spans at least as many bytes, so a probe
// every phoneMinDigits'th byte lands in it, and only the runs a probe
// lands in are expanded.
func findPhone(s []byte) []byte {
	for p := phoneMinDigits - 1; p < len(s); p += phoneMinDigits {
		if !phoneBytes[s[p]] {
			continue
		}
		start, end := p, p+1
		for start > 0 && phoneBytes[s[start-1]] {
			start--
		}
		for end < len(s) && phoneBytes[s[end]] {
			end++
		}
		first, last, digits := -1, 0, 0
		for i, c := range s[start:end] {
			if isDigit(c) {
				if first < 0 {
					first = start + i
				}
				last = start + i
				digits++
			}
		}
		if digits >= phoneMinDigits && digits <= phoneMinDigits+1 {
			return s[first : last+1]
		}
		// Move to the last probe inside the run; the loop steps past it.
		p += (end - 1 - p) / phoneMinDigits * phoneMinDigits
	}
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// phoneBytes marks the digits and the separators a phone-like run allows.
var phoneBytes = func() (t [256]bool) {
	for _, c := range []byte("0123456789- .") {
		t[c] = true
	}
	return t
}()

// findGPS detects "lat=...&lon=..."-style coordinate pairs, the common
// mobile-app location leak shape, in case-folded text. Each key ends in
// '=', so the search steps from one '=' to the next.
func findGPS(lower []byte) []byte {
	latIdx, lonIdx, lngIdx := -1, -1, -1
	for i := 3; i < len(lower) && (latIdx < 0 || lonIdx < 0); i++ {
		k := bytes.IndexByte(lower[i:], '=')
		if k < 0 {
			break
		}
		i += k
		switch at := i - 3; string(lower[at:i]) {
		case "lat":
			if latIdx < 0 {
				latIdx = at
			}
		case "lon":
			if lonIdx < 0 {
				lonIdx = at
			}
		case "lng":
			if lngIdx < 0 {
				lngIdx = at
			}
		}
	}
	if lonIdx < 0 {
		lonIdx = lngIdx
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
