package mbx

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pvn/internal/dnssim"
	"pvn/internal/middlebox"
	"pvn/internal/packet"
	"pvn/internal/pki"
)

var (
	devIP = packet.MustParseIPv4("10.0.0.5")
	srvIP = packet.MustParseIPv4("93.184.216.34")
)

// ctx builds a standalone middlebox context wired to a scratch runtime so
// Alert works.
func ctx(t *testing.T, box middlebox.Box) (*middlebox.Context, *middlebox.Runtime) {
	t.Helper()
	rt := middlebox.NewRuntime(nil)
	rt.Register(&middlebox.Spec{Type: box.Name(), New: func(map[string]string) (middlebox.Box, error) { return box, nil }})
	inst, err := rt.Instantiate("alice", box.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rt.BuildChain("alice", "t", []string{inst.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = c
	return nil, rt
}

// runChain pushes one packet through the single-box chain built by ctx.
func runChain(t *testing.T, rt *middlebox.Runtime, data []byte) ([]byte, error) {
	t.Helper()
	// All instances boot at DefaultBootDelay; use a runtime whose Now is
	// past it.
	rt.Now = func() time.Duration { return time.Second }
	out, _, err := rt.ExecuteChain("alice/t", data)
	return out, err
}

func tcpSeg(t *testing.T, dport uint16, payload []byte) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: devIP, Dst: srvIP, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40001, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reverse direction (server -> device)
func tcpSegRev(t *testing.T, sport uint16, payload []byte) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: srvIP, Dst: devIP, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: 40001}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func httpReq(t *testing.T, method, host, path, body string, hdrs ...packet.HTTPHeader) []byte {
	t.Helper()
	h := &packet.HTTP{IsRequest: true, Method: method, Path: path, Body: []byte(body)}
	h.SetHeader("Host", host)
	for _, hd := range hdrs {
		h.SetHeader(hd.Name, hd.Value)
	}
	msg, err := packet.SerializeToBytes(h)
	if err != nil {
		t.Fatal(err)
	}
	return tcpSeg(t, 80, msg)
}

func httpResp(t *testing.T, ct, body string) []byte {
	t.Helper()
	h := &packet.HTTP{StatusCode: 200, StatusText: "OK"}
	h.SetHeader("Content-Type", ct)
	h.Body = []byte(body)
	msg, err := packet.SerializeToBytes(h)
	if err != nil {
		t.Fatal(err)
	}
	return tcpSegRev(t, 80, msg)
}

func tlsSeg(t *testing.T, toServer bool, recs ...packet.TLSRecord) []byte {
	t.Helper()
	data, err := packet.SerializeToBytes(&packet.TLS{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if toServer {
		return tcpSeg(t, 443, data)
	}
	return tcpSegRev(t, 443, data)
}

// --- TLSVerify ---

type tlsFixture struct {
	store *pki.TrustStore
	root  *pki.CA
	box   *TLSVerify
	rt    *middlebox.Runtime
}

func newTLSFixture(t *testing.T) *tlsFixture {
	rootKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	root := pki.NewRootCA("Root", rootKey, 0, 1_000_000)
	store := pki.NewTrustStore(root.Cert)
	box := NewTLSVerify(store, func() int64 { return 500 })
	_, rt := ctx(t, box)
	return &tlsFixture{store: store, root: root, box: box, rt: rt}
}

func (f *tlsFixture) leafFor(t *testing.T, name string, from, until int64) []*pki.Certificate {
	k, _ := pki.GenerateKey(pki.NewDeterministicRand(7))
	leaf := f.root.Issue(pki.IssueOptions{Subject: name, PublicKey: k.Public, ValidFrom: from, ValidUntil: until})
	return []*pki.Certificate{leaf}
}

func TestTLSVerifyValidChainPasses(t *testing.T) {
	f := newTLSFixture(t)
	// ClientHello teaches the box the SNI.
	ch := packet.BuildClientHello("www.example.com", [32]byte{}, []uint16{1})
	if _, err := runChain(t, f.rt, tlsSeg(t, true, ch)); err != nil {
		t.Fatal(err)
	}
	chain := f.leafFor(t, "www.example.com", 0, 1_000_000)
	cert := packet.BuildCertificateRecord(pki.EncodeChain(chain))
	out, err := runChain(t, f.rt, tlsSeg(t, false, cert))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("valid certificate blocked")
	}
	if f.box.Checked != 1 || f.box.Blocked != 0 {
		t.Fatalf("counters checked=%d blocked=%d", f.box.Checked, f.box.Blocked)
	}
}

func TestTLSVerifyMITMBlocked(t *testing.T) {
	f := newTLSFixture(t)
	ch := packet.BuildClientHello("www.example.com", [32]byte{}, []uint16{1})
	runChain(t, f.rt, tlsSeg(t, true, ch))

	// MITM: attacker's own root signs a cert for the victim name.
	evilKey, _ := pki.GenerateKey(pki.NewDeterministicRand(66))
	evil := pki.NewRootCA("Evil", evilKey, 0, 1_000_000)
	k, _ := pki.GenerateKey(pki.NewDeterministicRand(67))
	mitm := evil.Issue(pki.IssueOptions{Subject: "www.example.com", PublicKey: k.Public, ValidFrom: 0, ValidUntil: 1_000_000})
	cert := packet.BuildCertificateRecord(pki.EncodeChain([]*pki.Certificate{mitm, evil.Cert}))
	out, err := runChain(t, f.rt, tlsSeg(t, false, cert))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatal("MITM certificate passed")
	}
	alerts := f.rt.Alerts("alice")
	if len(alerts) != 1 || alerts[0].Kind != "tls-invalid-cert" {
		t.Fatalf("alerts %+v", alerts)
	}
}

func TestTLSVerifyExpiredBlocked(t *testing.T) {
	f := newTLSFixture(t)
	runChain(t, f.rt, tlsSeg(t, true, packet.BuildClientHello("www.example.com", [32]byte{}, []uint16{1})))
	chain := f.leafFor(t, "www.example.com", 0, 100) // expired at now=500
	out, err := runChain(t, f.rt, tlsSeg(t, false, packet.BuildCertificateRecord(pki.EncodeChain(chain))))
	if err != nil || out != nil {
		t.Fatalf("expired cert: out=%v err=%v", out, err)
	}
}

func TestTLSVerifyNameMismatchBlocked(t *testing.T) {
	f := newTLSFixture(t)
	runChain(t, f.rt, tlsSeg(t, true, packet.BuildClientHello("bank.example.com", [32]byte{}, []uint16{1})))
	chain := f.leafFor(t, "phish.example.net", 0, 1_000_000)
	out, _ := runChain(t, f.rt, tlsSeg(t, false, packet.BuildCertificateRecord(pki.EncodeChain(chain))))
	if out != nil {
		t.Fatal("name-mismatched cert passed")
	}
}

func TestTLSVerifyWarnOnlyPasses(t *testing.T) {
	f := newTLSFixture(t)
	f.box.WarnOnly = true
	runChain(t, f.rt, tlsSeg(t, true, packet.BuildClientHello("www.example.com", [32]byte{}, []uint16{1})))
	chain := f.leafFor(t, "wrong.name", 0, 1_000_000)
	out, err := runChain(t, f.rt, tlsSeg(t, false, packet.BuildCertificateRecord(pki.EncodeChain(chain))))
	if err != nil || out == nil {
		t.Fatal("warn-only mode blocked the connection")
	}
	if len(f.rt.Alerts("alice")) == 0 {
		t.Fatal("warn-only mode did not alert")
	}
}

func TestTLSVerifyIgnoresNonTLS(t *testing.T) {
	f := newTLSFixture(t)
	out, err := runChain(t, f.rt, httpReq(t, "GET", "h", "/", ""))
	if err != nil || out == nil {
		t.Fatal("non-TLS packet affected")
	}
}

// --- DNSValidate ---

func dnsPacket(t *testing.T, msg *packet.DNS) []byte {
	t.Helper()
	body, err := packet.SerializeToBytes(msg)
	if err != nil {
		t.Fatal(err)
	}
	ip := &packet.IPv4{Src: srvIP, Dst: devIP, Protocol: packet.IPProtoUDP}
	udp := &packet.UDP{SrcPort: 53, DstPort: 3333}
	udp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, udp, packet.Payload(body))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDNSValidateSignedPassesAndForgedDrops(t *testing.T) {
	zone, _ := dnssim.NewZone("example.com", true, 1)
	zone.AddA("www.example.com", srvIP, 300)
	auth := dnssim.NewAuthority(zone)
	anchors := dnssim.TrustAnchors{"example.com": zone.PublicKey()}
	box := NewDNSValidate(anchors, nil, 0)
	_, rt := ctx(t, box)

	honest := dnssim.NewResolver("h", auth, 1)
	good := honest.Query("www.example.com", packet.DNSTypeA)
	if out, err := runChain(t, rt, dnsPacket(t, good)); err != nil || out == nil {
		t.Fatalf("signed answer blocked: %v", err)
	}
	if box.Validated != 1 {
		t.Fatalf("validated %d", box.Validated)
	}

	// Forge the A record, keep the signature: must drop.
	bad := honest.Query("www.example.com", packet.DNSTypeA)
	for i, a := range bad.Answers {
		if a.Type == packet.DNSTypeA {
			evil := packet.MustParseIPv4("198.18.0.66")
			bad.Answers[i].Data = evil[:]
		}
	}
	out, err := runChain(t, rt, dnsPacket(t, bad))
	if err != nil || out != nil {
		t.Fatalf("forged answer passed: out=%v err=%v", out, err)
	}
	if box.Forged != 1 {
		t.Fatalf("forged counter %d", box.Forged)
	}
}

func TestDNSValidateQuorumCatchesForgedUnsigned(t *testing.T) {
	zone, _ := dnssim.NewZone("legacy.net", false, 1)
	zone.AddA("old.legacy.net", srvIP, 300)
	auth := dnssim.NewAuthority(zone)
	var open []*dnssim.Resolver
	for i := 0; i < 3; i++ {
		open = append(open, dnssim.NewResolver("o", auth, uint64(i)))
	}
	box := NewDNSValidate(dnssim.TrustAnchors{}, open, 2)
	_, rt := ctx(t, box)

	// The device's resolver was malicious and forged the answer.
	evilAddr := packet.MustParseIPv4("198.18.0.66")
	forged := &packet.DNS{ID: 1, QR: true,
		Questions: []packet.DNSQuestion{{Name: "old.legacy.net", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
		Answers:   []packet.DNSRecord{{Name: "old.legacy.net", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Data: evilAddr[:]}}}
	out, err := runChain(t, rt, dnsPacket(t, forged))
	if err != nil || out != nil {
		t.Fatal("forged unsigned answer passed quorum check")
	}

	// The honest answer agrees with quorum and passes.
	honest := &packet.DNS{ID: 2, QR: true,
		Questions: []packet.DNSQuestion{{Name: "old.legacy.net", Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
		Answers:   []packet.DNSRecord{{Name: "old.legacy.net", Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Data: srvIP[:]}}}
	if out, err := runChain(t, rt, dnsPacket(t, honest)); err != nil || out == nil {
		t.Fatal("honest unsigned answer blocked")
	}
}

func TestDNSValidateIgnoresQueriesAndErrors(t *testing.T) {
	box := NewDNSValidate(dnssim.TrustAnchors{}, nil, 0)
	_, rt := ctx(t, box)
	q := &packet.DNS{ID: 1, RD: true, Questions: []packet.DNSQuestion{{Name: "x.y", Type: packet.DNSTypeA, Class: packet.DNSClassIN}}}
	if out, err := runChain(t, rt, dnsPacket(t, q)); err != nil || out == nil {
		t.Fatal("query blocked")
	}
	nx := &packet.DNS{ID: 2, QR: true, Rcode: packet.DNSRcodeNXDomain, Questions: q.Questions}
	if out, err := runChain(t, rt, dnsPacket(t, nx)); err != nil || out == nil {
		t.Fatal("NXDOMAIN blocked")
	}
}

// --- PIIDetect ---

func TestPIIDetectFindsSecretsAndPatterns(t *testing.T) {
	box := NewPIIDetect(PIIAlert, []string{"hunter2"})
	_, rt := ctx(t, box)
	pkt := httpReq(t, "POST", "api.example.com", "/login",
		"user=alice@example.com&password=hunter2&phone=617-555-1234&lat=42.33&lon=-71.09")
	out, err := runChain(t, rt, pkt)
	if err != nil || out == nil {
		t.Fatal("alert mode must pass traffic")
	}
	alerts := rt.Alerts("alice")
	kinds := map[string]bool{}
	for _, a := range alerts {
		kinds[strings.SplitN(a.Detail, ":", 2)[0]] = true
	}
	for _, want := range []string{"secret", "email", "phone", "gps"} {
		if !kinds[want] {
			t.Errorf("missing %s detection; alerts: %+v", want, alerts)
		}
	}
}

func TestPIIDetectBlockMode(t *testing.T) {
	box := NewPIIDetect(PIIBlock, []string{"hunter2"})
	_, rt := ctx(t, box)
	out, err := runChain(t, rt, httpReq(t, "POST", "h", "/l", "password=hunter2"))
	if err != nil || out != nil {
		t.Fatal("block mode passed a leaking packet")
	}
	if box.Blocked != 1 {
		t.Fatalf("blocked %d", box.Blocked)
	}
	// Clean traffic still flows.
	out, err = runChain(t, rt, httpReq(t, "GET", "h", "/ok", "clean"))
	if err != nil || out == nil {
		t.Fatal("clean packet blocked")
	}
}

func TestPIIDetectRedactRewritesAndChecksums(t *testing.T) {
	box := NewPIIDetect(PIIRedact, []string{"hunter2"})
	box.DetectPatterns = false
	_, rt := ctx(t, box)
	out, err := runChain(t, rt, httpReq(t, "POST", "h", "/l", "password=hunter2&x=1"))
	if err != nil || out == nil {
		t.Fatal("redact mode dropped")
	}
	p := packet.Decode(out, packet.LayerTypeIPv4)
	body := string(p.HTTP().Body)
	if strings.Contains(body, "hunter2") {
		t.Fatalf("secret survived redaction: %q", body)
	}
	if !strings.Contains(body, "*******") {
		t.Fatalf("mask missing: %q", body)
	}
	if !p.TCP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("redacted packet has bad checksum")
	}
}

func TestPIIDetectSkipsTLS(t *testing.T) {
	box := NewPIIDetect(PIIBlock, []string{"hunter2"})
	_, rt := ctx(t, box)
	rec := packet.BuildApplicationData([]byte("password=hunter2"))
	out, err := runChain(t, rt, tlsSeg(t, true, rec))
	if err != nil || out == nil {
		t.Fatal("encrypted traffic must pass the plaintext detector")
	}
}

func TestFindEmailEdges(t *testing.T) {
	if e := string(findEmail([]byte("write to bob.smith+x@mail.example.org."))); e != "bob.smith+x@mail.example.org" {
		t.Fatalf("email %q", e)
	}
	if e := string(findEmail([]byte("no at sign here"))); e != "" {
		t.Fatalf("false email %q", e)
	}
	if e := string(findEmail([]byte("a@b"))); e != "" {
		t.Fatalf("tld-less email accepted: %q", e)
	}
}

func TestFindPhoneEdges(t *testing.T) {
	if p := string(findPhone([]byte("call 617-555-1234 now"))); p != "617-555-1234" {
		t.Fatalf("phone %q", p)
	}
	if p := string(findPhone([]byte("version 1.2.3"))); p != "" {
		t.Fatalf("false phone %q", p)
	}
	if p := string(findPhone([]byte("id 123456789012345"))); p != "" {
		t.Fatalf("long digit run misread as phone: %q", p)
	}
}

// --- Classifier / Transcoder ---

func TestClassifierClasses(t *testing.T) {
	box := NewClassifier()
	_, rt := ctx(t, box)
	runChain(t, rt, httpResp(t, "video/mp4", "MOVIEDATA"))
	runChain(t, rt, httpResp(t, "text/html", "<html>"))
	runChain(t, rt, httpResp(t, "image/png", "PNG"))
	runChain(t, rt, dnsPacket(t, &packet.DNS{ID: 1, QR: true, Questions: []packet.DNSQuestion{{Name: "a.b", Type: 1, Class: 1}}, Answers: []packet.DNSRecord{{Name: "a.b", Type: 1, Class: 1, Data: srvIP[:]}}}))
	runChain(t, rt, tlsSeg(t, true, packet.BuildClientHello("video.example.com", [32]byte{}, []uint16{1})))

	if box.Counts[ClassVideo] != 2 { // video/mp4 + video SNI
		t.Fatalf("video count %d, want 2 (counts %v)", box.Counts[ClassVideo], box.Counts)
	}
	if box.Counts[ClassWebText] != 1 || box.Counts[ClassImage] != 1 || box.Counts[ClassDNS] != 1 {
		t.Fatalf("counts %v", box.Counts)
	}
}

func TestTranscoderShrinksVideoOnly(t *testing.T) {
	box := NewTranscoder(0.5)
	_, rt := ctx(t, box)
	video := httpResp(t, "video/mp4", strings.Repeat("V", 1000))
	out, err := runChain(t, rt, video)
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Decode(out, packet.LayerTypeIPv4)
	if got := len(p.HTTP().Body); got != 500 {
		t.Fatalf("video body %d bytes, want 500", got)
	}
	if p.HTTP().Header("X-PVN-Transcoded") != "1" {
		t.Fatal("transcode marker missing")
	}
	if !p.TCP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("transcoded packet has bad checksum")
	}

	text := httpResp(t, "text/html", strings.Repeat("T", 1000))
	out, _ = runChain(t, rt, text)
	if len(packet.Decode(out, packet.LayerTypeIPv4).HTTP().Body) != 1000 {
		t.Fatal("non-video transcoded")
	}
	if box.BytesIn != 1000 || box.BytesOut != 500 {
		t.Fatalf("accounting %d/%d", box.BytesIn, box.BytesOut)
	}
}

// --- Blocklists ---

func TestTrackerBlockByHostAndSNI(t *testing.T) {
	box := NewTrackerBlock([]string{"ads.example", "Tracker.NET"})
	_, rt := ctx(t, box)
	if out, _ := runChain(t, rt, httpReq(t, "GET", "ads.example", "/pixel", "")); out != nil {
		t.Fatal("tracker host not blocked")
	}
	if out, _ := runChain(t, rt, httpReq(t, "GET", "sub.tracker.net", "/t", "")); out != nil {
		t.Fatal("tracker subdomain not blocked")
	}
	if out, _ := runChain(t, rt, tlsSeg(t, true, packet.BuildClientHello("ads.example", [32]byte{}, []uint16{1}))); out != nil {
		t.Fatal("tracker SNI not blocked")
	}
	if out, _ := runChain(t, rt, httpReq(t, "GET", "news.example", "/a", "")); out == nil {
		t.Fatal("legit host blocked")
	}
	if box.Blocked != 3 {
		t.Fatalf("blocked %d", box.Blocked)
	}
}

func TestMalwareScan(t *testing.T) {
	box := NewMalwareScan([][]byte{[]byte("EVILBYTES")})
	_, rt := ctx(t, box)
	if out, _ := runChain(t, rt, httpResp(t, "application/octet-stream", "xxEVILBYTESxx")); out != nil {
		t.Fatal("malware payload not dropped")
	}
	if out, _ := runChain(t, rt, httpResp(t, "application/octet-stream", "innocent")); out == nil {
		t.Fatal("clean payload dropped")
	}
	if box.Detected != 1 {
		t.Fatalf("detected %d", box.Detected)
	}
}

// --- Compressor / Prefetcher ---

func TestCompressorLossless(t *testing.T) {
	box := NewCompressor()
	_, rt := ctx(t, box)
	body := strings.Repeat("compressible text content ", 100)
	out, err := runChain(t, rt, httpResp(t, "text/html", body))
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Decode(out, packet.LayerTypeIPv4)
	h := p.HTTP()
	if h.Header("Content-Encoding") != "deflate" {
		t.Fatal("not compressed")
	}
	if len(h.Body) >= len(body) {
		t.Fatal("compression did not shrink body")
	}
	plain, err := Decompress(h.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != body {
		t.Fatal("compression not lossless")
	}
	if !p.TCP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("compressed packet has bad checksum")
	}
}

func TestCompressorSkipsSmallBinaryAndEncoded(t *testing.T) {
	box := NewCompressor()
	_, rt := ctx(t, box)
	small := httpResp(t, "text/html", "tiny")
	out, _ := runChain(t, rt, small)
	if packet.Decode(out, packet.LayerTypeIPv4).HTTP().Header("Content-Encoding") != "" {
		t.Fatal("tiny body compressed")
	}
	binary := httpResp(t, "video/mp4", strings.Repeat("v", 1000))
	out, _ = runChain(t, rt, binary)
	if packet.Decode(out, packet.LayerTypeIPv4).HTTP().Header("Content-Encoding") != "" {
		t.Fatal("binary body compressed")
	}
}

func TestPrefetcherCacheAndEviction(t *testing.T) {
	f := NewPrefetcher()
	f.CapBytes = 100
	f.StoreResource("h", "/a", bytes.Repeat([]byte("a"), 60))
	f.StoreResource("h", "/b", bytes.Repeat([]byte("b"), 60)) // evicts /a
	if _, ok := f.Lookup("h", "/a"); ok {
		t.Fatal("/a survived eviction")
	}
	if body, ok := f.Lookup("h", "/b"); !ok || len(body) != 60 {
		t.Fatal("/b missing")
	}
	if f.Hits != 1 || f.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", f.Hits, f.Misses)
	}
	if f.CacheSize() != 60 {
		t.Fatalf("cache size %d", f.CacheSize())
	}
}

func TestPrefetcherLearnsFromResponses(t *testing.T) {
	box := NewPrefetcher()
	_, rt := ctx(t, box)
	h := &packet.HTTP{StatusCode: 200, StatusText: "OK", Body: []byte("resource-bytes")}
	h.SetHeader("Content-Type", "text/css")
	h.SetHeader("X-PVN-Resource", "h/style.css")
	msg, _ := packet.SerializeToBytes(h)
	runChain(t, rt, tcpSegRev(t, 80, msg))
	if body, ok := box.Lookup("h", "/missing"); ok || body != nil {
		t.Fatal("phantom cache hit")
	}
	if body, ok := box.cache["h/style.css"]; !ok || string(body) != "resource-bytes" {
		t.Fatal("response not cached")
	}
}

// --- ScriptBox ---

func TestScriptCompileErrors(t *testing.T) {
	bad := []string{
		"drop everything",
		"when bogusfield == 1 then drop",
		"when dport ?? 1 then drop",
		"when dport == 1 then explode",
		`when host contains "x then drop`,
		"when ( dport == 1 then drop",
		"when dport == 1 then alert",
		"when dport == 1 then drop extra",
	}
	for _, src := range bad {
		if _, err := CompileScript(src); err == nil {
			t.Errorf("compiled invalid program %q", src)
		}
	}
}

func TestScriptRuleLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		b.WriteString("when dport == 1 then pass\n")
	}
	if _, err := CompileScript(b.String()); err == nil {
		t.Fatal("200-rule program accepted")
	}
}

func TestScriptFirstMatchWins(t *testing.T) {
	box, err := CompileScript(`
# allow the API host, block other port-80 traffic
when host == "api.example.com" then pass
when dport == 80 then drop
`)
	if err != nil {
		t.Fatal(err)
	}
	_, rt := ctx(t, box)
	if out, _ := runChain(t, rt, httpReq(t, "GET", "api.example.com", "/", "")); out == nil {
		t.Fatal("whitelisted host dropped")
	}
	if out, _ := runChain(t, rt, httpReq(t, "GET", "other.example.com", "/", "")); out != nil {
		t.Fatal("other host not dropped")
	}
	if box.Matched != 2 {
		t.Fatalf("matched %d", box.Matched)
	}
}

func TestScriptBooleansAndAlert(t *testing.T) {
	box, err := CompileScript(`when proto == tcp and ( path startswith "/track" or payload contains "beacon" ) and not host == "safe.example" then alert "tracking"`)
	if err != nil {
		t.Fatal(err)
	}
	_, rt := ctx(t, box)
	runChain(t, rt, httpReq(t, "GET", "x.example", "/track/p", ""))
	runChain(t, rt, httpReq(t, "GET", "x.example", "/page", "a beacon payload"))
	runChain(t, rt, httpReq(t, "GET", "safe.example", "/track/p", ""))
	alerts := rt.Alerts("alice")
	if len(alerts) != 2 {
		t.Fatalf("alerts %d, want 2: %+v", len(alerts), alerts)
	}
	for _, a := range alerts {
		if a.Detail != "tracking" {
			t.Fatalf("alert detail %q", a.Detail)
		}
	}
}

func TestScriptDefaultPass(t *testing.T) {
	box, _ := CompileScript(`when dport == 9999 then drop`)
	_, rt := ctx(t, box)
	if out, _ := runChain(t, rt, httpReq(t, "GET", "h", "/", "")); out == nil {
		t.Fatal("non-matching packet dropped")
	}
}

// --- Registry ---

func TestRegisterBuiltinsInstantiatesEverything(t *testing.T) {
	rootKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	root := pki.NewRootCA("Root", rootKey, 0, 1000)
	zone, _ := dnssim.NewZone("example.com", true, 2)
	auth := dnssim.NewAuthority(zone)
	rt := middlebox.NewRuntime(nil)
	rt.MemoryCapBytes = 1 << 30
	RegisterBuiltins(rt, Deps{
		TrustStore:    pki.NewTrustStore(root.Cert),
		NowSeconds:    func() int64 { return 0 },
		Anchors:       dnssim.TrustAnchors{"example.com": zone.PublicKey()},
		OpenResolvers: []*dnssim.Resolver{dnssim.NewResolver("o", auth, 1)},
	})
	cfgs := map[string]map[string]string{
		"user-script":    {"script": `when dport == 80 then pass`},
		"transcoder":     {"ratio": "0.5"},
		"pii-detect":     {"mode": "block", "secrets": "s1,s2"},
		"replica-select": {"service": "203.0.113.100", "replicas": "198.51.100.1:20"},
	}
	for _, typ := range rt.Types() {
		if _, err := rt.Instantiate("u", typ, cfgs[typ]); err != nil {
			t.Errorf("instantiate %s: %v", typ, err)
		}
	}
}

func TestRegisterBuiltinsBadConfigs(t *testing.T) {
	rt := middlebox.NewRuntime(nil)
	RegisterBuiltins(rt, Deps{TrustStore: pki.NewTrustStore()})
	bad := []struct {
		typ string
		cfg map[string]string
	}{
		{"user-script", nil},
		{"user-script", map[string]string{"script": "when x then y"}},
		{"transcoder", map[string]string{"ratio": "abc"}},
		{"pii-detect", map[string]string{"mode": "explode"}},
		{"dns-validate", map[string]string{"quorum": "-1"}},
	}
	for _, c := range bad {
		if _, err := rt.Instantiate("u", c.typ, c.cfg); err == nil {
			t.Errorf("bad config accepted for %s: %v", c.typ, c.cfg)
		}
	}
}

func TestTCPProxyCountsFlows(t *testing.T) {
	box := NewTCPProxy()
	_, rt := ctx(t, box)
	runChain(t, rt, tcpSeg(t, 80, []byte("a")))
	runChain(t, rt, tcpSegRev(t, 80, []byte("b"))) // same canonical flow
	runChain(t, rt, tcpSeg(t, 443, []byte{22, 3, 3, 0, 1, 0}))
	if len(box.Flows) != 2 {
		t.Fatalf("flows %d, want 2", len(box.Flows))
	}
}
