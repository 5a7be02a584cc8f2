package mbx

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// The reference: pii-detect's scan as it was before it moved to pooled
// []byte scratch — the message rebuilt by concatenation, copied to a
// string, strings.ToLower for the fold. Kept verbatim so the differential
// test below compares against the behaviour, not against a port of it.

func refScanText(p *packet.Packet) []byte {
	payload := p.ApplicationPayload()
	if h := p.HTTP(); h != nil {
		payload = append([]byte(h.Method+" "+h.Path+" "), payload...)
		for _, hd := range h.Headers {
			payload = append(payload, []byte(" "+hd.Name+": "+hd.Value)...)
		}
	}
	return payload
}

func refScan(d *PIIDetect, s string) []string { return refScanFold(d, s, strings.ToLower) }

// refScanFold is refScan with toLower in place of strings.ToLower, for
// FuzzPIIScan's non-ASCII texts, where the byte-wise fold is meant to
// differ.
func refScanFold(d *PIIDetect, s string, toLower func(string) string) []string {
	var found []string
	lower := toLower(s)
	for _, sec := range d.Secrets {
		if sec != "" && strings.Contains(lower, toLower(sec)) {
			found = append(found, fmt.Sprintf("secret:%s", sec))
		}
	}
	if d.DetectPatterns {
		if e := refFindEmail(s); e != "" {
			found = append(found, "email:"+e)
		}
		if ph := refFindPhone(s); ph != "" {
			found = append(found, "phone:"+ph)
		}
		if g := refFindGPS(lower); g != "" {
			found = append(found, "gps:"+g)
		}
	}
	return found
}

func refFindEmail(s string) string {
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
		for end > i+1 && s[end-1] == '.' {
			end--
			dots--
		}
		if start < i && dots >= 1 && end > i+3 {
			return s[start:end]
		}
	}
	return ""
}

func refFindPhone(s string) string {
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
	return ""
}

func refFindGPS(lower string) string {
	latIdx := strings.Index(lower, "lat=")
	lonIdx := strings.Index(lower, "lon=")
	if lonIdx < 0 {
		lonIdx = strings.Index(lower, "lng=")
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
	return ""
}

// scanCase is one HTTP request of the differential corpus.
type scanCase struct {
	method, path, body string
	hdrs               []packet.HTTPHeader
	// has, when set, is a finding the case exists to produce.
	has string
}

func (c scanCase) frame(t *testing.T) []byte {
	t.Helper()
	msg, err := packet.SerializeToBytes(&packet.HTTP{IsRequest: true, Method: c.method, Path: c.path, Headers: c.hdrs, Body: []byte(c.body)})
	if err != nil {
		t.Fatal(err)
	}
	return tcpSeg(t, 80, msg)
}

// scanSecrets includes three that exist only across a join of the scan
// text ("METHOD PATH BODY NAME: VALUE NAME: VALUE").
var scanSecrets = []string{"hunter2", "", "DevID-77", "T /hun", "ter2 tok", "en: 1 x-n"}

// straddleCases put a token across each join: it is in the joined text
// only, so a scan of the parts one by one would miss it.
var straddleCases = []scanCase{
	// secrets across method | path, body | header name, value | next name
	{method: "POST", path: "/hunt", body: "x", has: "secret:T /hun"},
	{method: "POST", path: "/", body: "pw=hunter2", hdrs: []packet.HTTPHeader{{Name: "Token", Value: "1"}, {Name: "X-N", Value: "2"}}, has: "secret:en: 1 x-n"},
	// phones across path | body, body | header name, value | next name
	// ("555: 1234" is not one: the colon ends the run)
	{method: "GET", path: "/call/617-555", body: "1234 now", has: "phone:617-555 1234"},
	{method: "POST", path: "/", body: "n=617 555", hdrs: []packet.HTTPHeader{{Name: "1234", Value: "v"}}, has: "phone:617 555 1234"},
	{method: "GET", path: "/", hdrs: []packet.HTTPHeader{{Name: "A", Value: "617-555"}, {Name: "1234", Value: "z"}}, has: "phone:617-555 1234"},
	{method: "GET", path: "/", hdrs: []packet.HTTPHeader{{Name: "X-617-555", Value: "1234"}}},
	// gps with lat in the path and lon in a header value, and reversed
	{method: "GET", path: "/p?LAT=42.33", body: "b", hdrs: []packet.HTTPHeader{{Name: "X-Loc", Value: "Lon=-71.09;"}}, has: "gps:lat=42.33 b x-loc: lon=-71.09"},
	{method: "GET", path: "/p?lng=-71.09", hdrs: []packet.HTTPHeader{{Name: "X-Loc", Value: "lat=42.33"}}, has: "gps:lng=-71.09"},
	// an email that ends at a join, and one the join breaks
	{method: "GET", path: "/u/bob@mail.example.org", body: "tail", has: "email:bob@mail.example.org"},
	{method: "GET", path: "/u/bob@mail", body: "example.org"},
	// a mixed-case secret in every part
	{method: "HuNtEr2", path: "/HUNTER2", body: "hUnTeR2", hdrs: []packet.HTTPHeader{{Name: "HUNTer2", Value: "hunTER2"}}},
	// nothing but the joins themselves
	{method: "GET", path: "/"},
}

// randomCases builds n requests from a seeded mix of clean filler, PII
// tokens in mixed case and runs of high bytes (in bodies and header
// values, where the wire format allows them). A request with high bytes
// gets no coordinates: a gps finding quotes the folded text, and the
// reference's strings.ToLower rewrites invalid UTF-8 inside it — the one
// place the byte-wise fold is meant to differ.
func randomCases(seed int64, n int) []scanCase {
	r := rand.New(rand.NewSource(seed))
	tokens := []string{
		"lat=42.33&lon=-71.09", "LAT=1&LNG=2", "lon=3",
		"hunter2", "HUNTER2", "HunTer2", "hunter", "devID-77", "DEVid-77",
		"alice@example.com", "Bob.Smith+x@Mail.Example.ORG.", "a@b", "@", "x@y.z",
		"617-555-1234", "6175551234", "1 617 555 1234", "123456789012345", "1.2.3", "555",
		"filler", "the quick brown fox", "&", "=", "/", "?q=", ";", "\r\n",
	}
	const gpsTokens = 3
	high := false
	piece := func(highOK bool) string {
		var b strings.Builder
		for k := r.Intn(6); k >= 0; k-- {
			switch {
			case high && highOK && r.Intn(4) == 0:
				for m := 1 + r.Intn(8); m > 0; m-- {
					b.WriteByte(byte(0x80 + r.Intn(0x80)))
				}
			case high:
				b.WriteString(tokens[gpsTokens+r.Intn(len(tokens)-gpsTokens)])
			default:
				b.WriteString(tokens[r.Intn(len(tokens))])
			}
			if r.Intn(2) == 0 {
				b.WriteByte(' ')
			}
		}
		return b.String()
	}
	// word is a piece that can sit in the start line or a header name.
	word := strings.NewReplacer(" ", "_", "\r\n", "_", ":", "-")
	cases := make([]scanCase, n)
	for i := range cases {
		high = r.Intn(2) == 0
		c := scanCase{method: []string{"GET", "POST", "PUT"}[r.Intn(3)], path: "/" + word.Replace(piece(false)), body: piece(true)}
		for k := r.Intn(4); k > 0; k-- {
			value := strings.TrimSpace(strings.ReplaceAll(piece(true), "\r\n", " "))
			c.hdrs = append(c.hdrs, packet.HTTPHeader{Name: "X" + word.Replace(piece(false)), Value: value})
		}
		cases[i] = c
	}
	return cases
}

// textTap is a hop that keeps a copy of the scan text pii-detect builds
// from ctx.HTTP, or nil when ctx.HTTP has no view of the packet.
type textTap struct {
	sc   scanScratch
	text []byte
}

func (*textTap) Name() string { return "text-tap" }
func (tap *textTap) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	tap.text = nil
	if v := ctx.HTTP(data); v != nil {
		tap.text = slices.Clone(tap.sc.scanText(v))
	}
	return data, middlebox.VerdictPass, nil
}

// TestScanMatchesReference is the differential oracle for the in-place
// scan: over the straddle cases and a seeded random corpus, the scan
// text pii-detect builds from Context.HTTP is byte-identical to the old
// concatenation of the string decode, both for the packet a chain was
// entered with (the pooled view, after the isolation check's headers
// decode) and for bytes of a box's own choosing (a view of their own),
// and the findings are the old scan's, in order; over the seeded raw
// texts the findings are the old scan's, the fold is foldASCII's over
// the part of the text the scan folded, and that part reaches back to 3
// bytes before the first '=', where a coordinate can start.
func TestScanMatchesReference(t *testing.T) {
	d := NewPIIDetect(PIIAlert, scanSecrets)
	cases := append(append([]scanCase(nil), straddleCases...), randomCases(14, 600)...)
	hits := map[string]int{}
	tap := &textTap{}
	rt := chainOf(t, tap)
	var sc scanScratch // one scratch for the whole corpus, as a worker reuses its own
	for i, c := range cases {
		frame := c.frame(t)
		p := packet.Decode(frame, packet.LayerTypeIPv4)
		if p.HTTP() == nil {
			t.Fatalf("case %d does not decode as HTTP: %+v", i, c)
		}
		want := refScanText(p)
		if _, err := runChain(t, rt, frame); err != nil {
			t.Fatal(err)
		}
		own := new(middlebox.Context).HTTP(frame)
		if tap.text == nil || own == nil {
			t.Fatalf("case %d: Context.HTTP has no view (entered %t, own bytes %t)", i, tap.text != nil, own != nil)
		}
		if text := sc.scanText(own); string(text) != string(want) || string(tap.text) != string(want) {
			t.Fatalf("case %d: scan text differs\n got %q\n and %q\nwant %q", i, tap.text, text, want)
		}
		got, ref := d.scan(&sc, tap.text), refScan(d, string(want))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("case %d %+v:\n got %q\nwant %q", i, c, got, ref)
		}
		for _, f := range got {
			hits[f[:strings.IndexByte(f, ':')]]++
		}
		if c.has != "" && !slices.Contains(got, c.has) {
			t.Errorf("case %d: %q not among %q", i, c.has, got)
		}
	}
	for _, kind := range []string{"secret", "email", "phone", "gps"} {
		if hits[kind] < 20 {
			t.Errorf("corpus is too thin to mean anything: %d %s findings", hits[kind], kind)
		}
	}

	// Not HTTP: no view, and the payload is scanned where it lies.
	frame := tcpSeg(t, 9000, []byte("id HUNTER2 617-555-1234 \xff\xfe"))
	if _, err := runChain(t, rt, frame); err != nil || tap.text != nil {
		t.Fatalf("raw payload: err=%v, view text %q", err, tap.text)
	}
	raw := packet.Decode(frame, packet.LayerTypeIPv4)
	if got, ref := d.scan(&sc, raw.ApplicationPayload()), refScan(d, string(refScanText(raw))); !reflect.DeepEqual(got, ref) || len(got) != 2 {
		t.Fatalf("raw payload: got %q, want %q", got, ref)
	}
	if d.scan(&sc, nil) != nil {
		t.Fatal("empty text produced findings")
	}

	// Raw texts aimed at the word-at-a-time fold and the detectors'
	// start positions; the fold itself is held to foldASCII byte for byte.
	d = NewPIIDetect(PIIAlert, append(slices.Clone(scanSecrets), "grüße", "жук"))
	hits = map[string]int{}
	for i, text := range seededTexts() {
		got, ref := d.scan(&sc, text), refScan(d, string(text))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("seeded text %d %q:\n got %q\nwant %q", i, text, got, ref)
		}
		if want := foldASCII(nil, text[sc.from:]); string(sc.lower) != string(want) {
			t.Fatalf("seeded text %d %q: folded from %d to %q, want %q", i, text, sc.from, sc.lower, want)
		}
		if eq := bytes.IndexByte(text, '='); eq >= 0 && sc.from > max(eq-3, 0) {
			t.Fatalf("seeded text %d %q: folded from %d, past where a coordinate can start", i, text, sc.from)
		}
		for _, f := range got {
			hits[f[:strings.IndexByte(f, ':')]]++
		}
	}
	for _, kind := range []string{"secret", "email", "phone", "gps"} {
		if hits[kind] < 100 {
			t.Errorf("seeded texts are too thin to mean anything: %d %s findings", hits[kind], kind)
		}
	}
}

// TestFoldScanMatchesFoldASCII: on random bytes the word-at-a-time fold
// is foldASCII, appended after what dst already holds.
func TestFoldScanMatchesFoldASCII(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	var dst []byte
	for i := 0; i < 200_000; i++ {
		src := make([]byte, r.Intn(41))
		r.Read(src)
		prefix := r.Intn(3)
		got := foldScan(append(dst[:0], "ab"[:prefix]...), src)
		if want := foldASCII([]byte("ab"[:prefix]), src); string(got) != string(want) {
			t.Fatalf("foldScan(%q) = %q, want %q", src, got, want)
		}
		dst = got
	}
}

// seededTexts puts each detector's trigger at every offset mod 8 of the
// fold's 64-bit words and in the tail past the last whole word, every
// byte 0x80..0xFF among upper-case letters, lower-case non-ASCII letters
// inside coordinates and secrets, and "lat=" at offsets 0 to 2. Filler
// is letters only, so no trigger is found by accident.
func seededTexts() [][]byte {
	var texts [][]byte
	for _, trig := range []string{
		"617-555-1234", "6175551234", "7", "a@b.cd", "@", "x@y.z.", "=", "lat=1&lon=2",
		"LAT=42.33;LNG=-71.09", "lon=3 lat=4", "HUNTER2", "DevID-77", "Grüße", "жук",
		"lat=1é&lon=2ж", "the ß@mail.example",
	} {
		for lead := 0; lead < 16; lead++ {
			for tail := 0; tail < 9; tail++ {
				texts = append(texts, []byte(strings.Repeat("Q", lead)+trig+strings.Repeat("z", tail)))
			}
		}
	}
	for b := 0x80; b <= 0xff; b++ {
		for lead := 0; lead < 9; lead++ {
			texts = append(texts, append([]byte(strings.Repeat("AZ", 4)[:lead]), byte(b), 'A', 'Z', 'a', 'z', '0', '9', '@', 'Z'))
		}
	}
	for lead := 0; lead < 3; lead++ {
		texts = append(texts, []byte("xy"[:lead]+"lat=1&lon=2"), []byte("xy"[:lead]+"lon=2&lat=1"))
	}
	return texts
}

// TestRedactMasksBehindNonASCII pins an offset bug of an earlier
// string replace: offsets found in strings.ToLower(s) indexed s, and ToLower changes the length
// of invalid UTF-8 (one byte becomes U+FFFD, three) and of some letters
// ("İ" grows by one), so the mask landed late and left part of the
// secret in the packet — or ran off the end and panicked, which an
// attacker-chosen payload could use to open the user's own breaker.
func TestRedactMasksBehindNonASCII(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"\xffhello hunter2 world", "\xffhello ******* world"},
		{"İİİ pad hunter2 tail", "İİİ pad ******* tail"},
		{strings.Repeat("\xff", 15) + "hunter2", strings.Repeat("\xff", 15) + "*******"},
		{"Hunter2 and HUNTER2", "******* and *******"},
	} {
		box := NewPIIDetect(PIIRedact, []string{"hunter2"})
		box.DetectPatterns = false
		_, rt := ctx(t, box)
		out, err := runChain(t, rt, httpReq(t, "POST", "h", "/l", tc.body))
		if err != nil || out == nil {
			t.Fatalf("%q: redact mode lost the packet (out=%v err=%v)", tc.body, out != nil, err)
		}
		if st := rt.SupervisorStats(); st.Panics != 0 {
			t.Fatalf("%q: the box panicked", tc.body)
		}
		body := string(packet.Decode(out, packet.LayerTypeIPv4).HTTP().Body)
		if body != tc.want {
			t.Errorf("redacted %q\n got %q\nwant %q", tc.body, body, tc.want)
		}
		for _, frag := range []string{"hunter2", "unter2", "ter2", "er2"} {
			if strings.Contains(strings.ToLower(body), frag) {
				t.Errorf("%q: %q of the secret survived in %q", tc.body, frag, body)
			}
		}
	}
}

// TestScanLinearWorstCase: texts saturated with a secret's leading bytes
// cut the anchor search over to one linear search, so the candidates
// checked one by one stay within maxCandidates and within one text's
// length of compared bytes, and the findings stay the reference's.
func TestScanLinearWorstCase(t *testing.T) {
	var sc scanScratch
	found := 0
	check := func(name, text, secret string) {
		t.Helper()
		d := NewPIIDetect(PIIAlert, []string{secret})
		got, ref := d.scan(&sc, []byte(text)), refScan(d, text)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: %.40q… against %q:\n got %q\nwant %q", name, text, secret, got, ref)
		}
		if sc.checks > maxCandidates || sc.checks*len(secret) > len(text) {
			t.Fatalf("%s: %d candidates of %d bytes checked one by one in %d bytes of text", name, sc.checks, len(secret), len(text))
		}
		found += len(got)
	}

	long := strings.Repeat("a", 63) + "b"
	for _, c := range []struct {
		text, secret string
		linear       bool
	}{
		{strings.Repeat("a", 1400), long, true},
		{strings.Repeat("a", 1400) + "B", long, true},
		{strings.Repeat("aA", 700), "aAaA" + strings.Repeat("x", 60), true},
		// Each leading byte maxCandidates times, but the candidates
		// would compare more bytes than the text holds.
		{strings.Repeat("abcd"+strings.Repeat("z", 60), maxCandidates), "abcd" + strings.Repeat("z", 200), true},
		// maxCandidates anchors of a short secret: checked one by one.
		{strings.Repeat("hunter ", maxCandidates) + strings.Repeat("z", 200), "hunter2", false},
		{strings.Repeat("HUNTER ", maxCandidates-1) + "hUnTeR2", "hunter2", false},
	} {
		check(fmt.Sprintf("linear=%t", c.linear), c.text, c.secret)
		if folded := sc.from == 0; folded != c.linear {
			t.Errorf("%.40q… against %q: folded from %d after %d candidates, want linear=%t", c.text, c.secret, sc.from, sc.checks, c.linear)
		}
	}

	// Texts over a four-letter alphabet make every anchor common.
	r := rand.New(rand.NewSource(49))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "aAbB"[r.Intn(4)]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		check(fmt.Sprintf("random %d", i), word(1+r.Intn(1400)), word(1+r.Intn(12)))
	}
	if found < 100 {
		t.Errorf("only %d findings: the texts never exercise a match", found)
	}
}

// FuzzPIIScan: on any text and any comma-separated secrets (non-ASCII,
// empty, overlapping, longer than the text) the scan's findings are the
// reference's. Where strings.ToLower changes non-ASCII text (other
// letters, invalid UTF-8) the scan folds ASCII only, as it is meant to,
// and the reference folds the same way.
func FuzzPIIScan(f *testing.F) {
	f.Add([]byte("GET /l?token=Hunter2 lat=1&LON=2 call 617-555-1234 x@y.zz"), "hunter2,,ter2 t,HUNTER2")
	f.Add([]byte(strings.Repeat("a", 300)), strings.Repeat("a", 63)+"b,a,aa")
	f.Add([]byte("grÜsse ЖУК \xff\xfe İ K"), "grüsse,жук,\xff,i,k")
	f.Add([]byte("ab"), "abc,,b")
	f.Add([]byte("1234567890 12.345.678.901 -- 5 5 5 5 5 5 5 5 5 5"), "5 5")
	f.Fuzz(func(t *testing.T, text []byte, secrets string) {
		d := NewPIIDetect(PIIAlert, strings.Split(secrets, ","))
		toLower := strings.ToLower
		if strings.ToLower(string(text)) != string(foldASCII(nil, text)) || strings.ToLower(secrets) != string(foldASCII(nil, secrets)) {
			toLower = func(s string) string { return string(foldASCII(nil, s)) }
		}
		var sc scanScratch
		if got, ref := d.scan(&sc, text), refScanFold(d, string(text), toLower); !reflect.DeepEqual(got, ref) {
			t.Fatalf("text %q, secrets %q:\n got %q\nwant %q", text, secrets, got, ref)
		}
		if want := foldASCII(nil, text[min(sc.from, len(text)):]); string(sc.lower) != string(want) {
			t.Fatalf("text %q: folded from %d to %q, want %q", text, sc.from, sc.lower, want)
		}
	})
}

// scanSink keeps the benchmarked scans' results live.
var scanSink []string

// BenchmarkPIIScan: one scan of a bench-shaped GET (path, Host, a
// filler Cookie; a leak carries the first secret in the path) at 200
// and 1400 bytes, against 1 and 16 secrets, and of a text saturated
// with the one secret's leading byte.
func BenchmarkPIIScan(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	letters := func(alphabet string, n int) string {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(buf)
	}
	const filler = "abcdefghijklmnoprstuvwxyz"
	secrets := []string{"zq" + letters(filler, 10)}
	for len(secrets) < 16 {
		secrets = append(secrets, letters("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_", 8+r.Intn(9)))
	}
	get := func(size int, leak bool) []byte {
		path := "/" + letters(filler, 8)
		if leak {
			path += "?token=" + secrets[0]
		}
		text := "GET " + path + "  Host: news.example Cookie: session "
		return []byte(text + letters(filler, max(size-len(text), 0)))
	}
	run := func(name string, d *PIIDetect, text []byte, want int) {
		b.Run(name, func(b *testing.B) {
			var sc scanScratch
			if got := d.scan(&sc, text); len(got) != want {
				b.Fatalf("%d findings %q, want %d", len(got), got, want)
			}
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanSink = d.scan(&sc, text)
			}
		})
	}
	for _, leak := range []bool{false, true} {
		for _, size := range []int{200, 1400} {
			for _, n := range []int{1, 16} {
				name := fmt.Sprintf("clean/%dB/%dsecrets", size, n)
				if leak {
					name = fmt.Sprintf("leak/%dB/%dsecrets", size, n)
				}
				run(name, NewPIIDetect(PIIBlock, secrets[:n]), get(size, leak), map[bool]int{false: 0, true: 1}[leak])
			}
		}
	}
	run("adversarial/1400B", NewPIIDetect(PIIBlock, []string{strings.Repeat("a", 63) + "b"}), bytes.Repeat([]byte("a"), 1400), 0)
}
