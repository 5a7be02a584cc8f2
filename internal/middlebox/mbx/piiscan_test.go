package mbx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

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

func refScan(d *PIIDetect, s string) []string {
	var found []string
	lower := strings.ToLower(s)
	for _, sec := range d.Secrets {
		if sec != "" && strings.Contains(lower, strings.ToLower(sec)) {
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

// TestScanMatchesReference is the differential oracle for the in-place
// scan: over the straddle cases and a seeded random corpus, the scan
// text is byte-identical to the old concatenation and the findings are
// the old scan's, in order.
func TestScanMatchesReference(t *testing.T) {
	d := NewPIIDetect(PIIAlert, scanSecrets)
	cases := append(append([]scanCase(nil), straddleCases...), randomCases(14, 600)...)
	hits := map[string]int{}
	var sc scanScratch // one scratch for the whole corpus, as a worker reuses its own
	for i, c := range cases {
		p := packet.Decode(c.frame(t), packet.LayerTypeIPv4)
		if p.HTTP() == nil {
			t.Fatalf("case %d does not decode as HTTP: %+v", i, c)
		}
		want := refScanText(p)
		text := sc.scanText(p)
		if string(text) != string(want) {
			t.Fatalf("case %d: scan text differs\n got %q\nwant %q", i, text, want)
		}
		got, ref := d.scan(&sc, text), refScan(d, string(want))
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

	// Not HTTP: the payload is scanned where it lies.
	raw := packet.Decode(tcpSeg(t, 9000, []byte("id HUNTER2 617-555-1234 \xff\xfe")), packet.LayerTypeIPv4)
	text := sc.scanText(raw)
	if got, ref := d.scan(&sc, text), refScan(d, string(refScanText(raw))); !reflect.DeepEqual(got, ref) || len(got) != 2 {
		t.Fatalf("raw payload: got %q, want %q", got, ref)
	}
	if d.scan(&sc, nil) != nil {
		t.Fatal("empty text produced findings")
	}
}

// TestRedactMasksBehindNonASCII pins the replaceFold offset bug: offsets
// found in strings.ToLower(s) indexed s, and ToLower changes the length
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
