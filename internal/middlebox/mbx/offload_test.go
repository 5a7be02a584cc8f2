package mbx

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
	"pvn/internal/pcapio"
)

var serviceAddr = packet.MustParseIPv4("203.0.113.100")

func TestReplicaSelectorRewritesToBest(t *testing.T) {
	box := NewReplicaSelector(serviceAddr)
	box.Observe(packet.MustParseIPv4("198.51.100.1"), 80*time.Millisecond)
	box.Observe(packet.MustParseIPv4("198.51.100.2"), 20*time.Millisecond)
	box.Observe(packet.MustParseIPv4("198.51.100.3"), 50*time.Millisecond)
	_, rt := ctx(t, box)

	// A connection to the service address is steered to replica .2.
	ip := &packet.IPv4{Src: devIP, Dst: serviceAddr, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload("hello"))
	out, err := runChain(t, rt, data)
	if err != nil {
		t.Fatal(err)
	}
	got := packet.Decode(out, packet.LayerTypeIPv4)
	if got.IPv4().Dst != packet.MustParseIPv4("198.51.100.2") {
		t.Fatalf("dst %v, want best replica", got.IPv4().Dst)
	}
	if !got.TCP().VerifyChecksum(got.IPv4().LayerPayload()) {
		t.Fatal("rewritten packet has bad checksum")
	}
	if box.Rewritten != 1 {
		t.Fatalf("rewritten %d", box.Rewritten)
	}

	// New measurements change the steering.
	box.Observe(packet.MustParseIPv4("198.51.100.1"), 5*time.Millisecond)
	out, _ = runChain(t, rt, data)
	if packet.Decode(out, packet.LayerTypeIPv4).IPv4().Dst != packet.MustParseIPv4("198.51.100.1") {
		t.Fatal("selector ignored fresher measurement")
	}
}

func TestReplicaSelectorPassesOtherTraffic(t *testing.T) {
	box := NewReplicaSelector(serviceAddr)
	box.Observe(packet.MustParseIPv4("198.51.100.1"), time.Millisecond)
	_, rt := ctx(t, box)
	in := tcpSeg(t, 80, []byte("x")) // dst = srvIP, not the service
	out, err := runChain(t, rt, in)
	if err != nil {
		t.Fatal(err)
	}
	if packet.Decode(out, packet.LayerTypeIPv4).IPv4().Dst != srvIP {
		t.Fatal("unrelated traffic rewritten")
	}
}

func TestReplicaSelectorNoMeasurements(t *testing.T) {
	box := NewReplicaSelector(serviceAddr)
	_, rt := ctx(t, box)
	ip := &packet.IPv4{Src: devIP, Dst: serviceAddr, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 1, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload("x"))
	out, err := runChain(t, rt, data)
	if err != nil {
		t.Fatal(err)
	}
	if packet.Decode(out, packet.LayerTypeIPv4).IPv4().Dst != serviceAddr {
		t.Fatal("rewrote with no data")
	}
}

// TestReplicaSelectorTieBreak: among replicas of equal RTT the lowest
// address string wins, whatever order the map yields them in.
func TestReplicaSelectorTieBreak(t *testing.T) {
	box := NewReplicaSelector(serviceAddr)
	for _, a := range []string{"198.51.100.9", "198.51.100.10", "198.51.100.200", "198.51.100.11"} {
		box.Observe(packet.MustParseIPv4(a), 20*time.Millisecond)
	}
	box.Observe(packet.MustParseIPv4("198.51.100.1"), 30*time.Millisecond)
	for i := 0; i < 20; i++ {
		if best, ok := box.Best(); !ok || best != packet.MustParseIPv4("198.51.100.10") {
			t.Fatalf("best %v, %v; want 198.51.100.10", best, ok)
		}
	}
}

// TestReplicaSelectorPassesCorruptHeader: a packet to the service whose
// IPv4 header checksum is wrong passes on as it came; resealing it would
// have made it valid.
func TestReplicaSelectorPassesCorruptHeader(t *testing.T) {
	box := NewReplicaSelector(serviceAddr)
	box.Observe(packet.MustParseIPv4("198.51.100.1"), time.Millisecond)
	_, rt := ctx(t, box)
	ip := &packet.IPv4{Src: devIP, Dst: serviceAddr, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 1, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload("x"))
	data[8]-- // TTL, under the header checksum
	out, err := runChain(t, rt, data)
	if err != nil || !bytes.Equal(out, data) || box.Rewritten != 0 {
		t.Fatalf("corrupt header: err=%v rewritten=%d out=%x", err, box.Rewritten, out)
	}
}

func TestWebRendererExtractsText(t *testing.T) {
	box := NewWebRenderer()
	_, rt := ctx(t, box)
	html := `<html><head><title>T</title><style>body{color:red}</style>
<script>var tracking = "beacon";</script></head>
<body><h1>Headline</h1><p>Paragraph   text
here.</p></body></html>`
	out, err := runChain(t, rt, httpResp(t, "text/html", html))
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Decode(out, packet.LayerTypeIPv4)
	h := p.HTTP()
	if h.Header("X-PVN-Rendered") != "1" {
		t.Fatal("not rendered")
	}
	body := string(h.Body)
	if strings.Contains(body, "<") || strings.Contains(body, "tracking") || strings.Contains(body, "color:red") {
		t.Fatalf("markup/script survived rendering: %q", body)
	}
	for _, want := range []string{"Headline", "Paragraph text here."} {
		if !strings.Contains(body, want) {
			t.Fatalf("visible text %q lost: %q", want, body)
		}
	}
	if len(h.Body) >= len(html) {
		t.Fatal("rendering did not shrink the page")
	}
	if !p.TCP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("rendered packet has bad checksum")
	}
	if box.Rendered != 1 || box.BytesOut >= box.BytesIn {
		t.Fatalf("accounting %d %d/%d", box.Rendered, box.BytesIn, box.BytesOut)
	}
}

func TestWebRendererSkipsNonHTML(t *testing.T) {
	box := NewWebRenderer()
	_, rt := ctx(t, box)
	out, _ := runChain(t, rt, httpResp(t, "application/json", `{"k":"<v>"}`))
	if packet.Decode(out, packet.LayerTypeIPv4).HTTP().Header("X-PVN-Rendered") != "" {
		t.Fatal("JSON rendered")
	}
	req := httpReq(t, "GET", "h", "/", "<html>req body</html>")
	out, _ = runChain(t, rt, req)
	if packet.Decode(out, packet.LayerTypeIPv4).HTTP().Header("X-PVN-Rendered") != "" {
		t.Fatal("request rendered")
	}
}

func TestOffloadRegistration(t *testing.T) {
	rt := middlebox.NewRuntime(nil)
	registerOffload(rt)
	if _, err := rt.Instantiate("u", "replica-select",
		map[string]string{"service": "203.0.113.100", "replicas": "198.51.100.1:20,198.51.100.2:5"}); err != nil {
		t.Fatalf("replica-select: %v", err)
	}
	if _, err := rt.Instantiate("u", "web-render", nil); err != nil {
		t.Fatalf("web-render: %v", err)
	}
	bad := []map[string]string{
		nil, // missing service
		{"service": "nope"},
		{"service": "1.2.3.4", "replicas": "garbage"},
		{"service": "1.2.3.4", "replicas": "1.2.3.5:xx"},
		{"service": "1.2.3.4", "replicas": "bad:5"},
	}
	for _, cfg := range bad {
		if _, err := rt.Instantiate("u", "replica-select", cfg); err == nil {
			t.Errorf("bad config accepted: %v", cfg)
		}
	}
}

func TestRenderHTMLEdgeCases(t *testing.T) {
	if got := renderHTML(""); got != "" {
		t.Fatalf("empty: %q", got)
	}
	if got := renderHTML("plain text only"); got != "plain text only" {
		t.Fatalf("plain: %q", got)
	}
	// Unterminated script: drop the rest rather than leak it.
	if got := renderHTML("before<script>evil"); strings.Contains(got, "evil") {
		t.Fatalf("unterminated script leaked: %q", got)
	}
}

func TestCaptureTapWritesValidPcap(t *testing.T) {
	var sink bytes.Buffer
	box, err := NewCaptureTap(&sink)
	if err != nil {
		t.Fatal(err)
	}
	_, rt := ctx(t, box)
	p1 := tcpSeg(t, 80, []byte("one"))
	p2 := tcpSeg(t, 443, []byte{22, 3, 3, 0, 1, 0})
	if out, err := runChain(t, rt, p1); err != nil || out == nil {
		t.Fatal("tap interfered with traffic")
	}
	runChain(t, rt, p2)
	if box.Captured != 2 {
		t.Fatalf("captured %d", box.Captured)
	}

	r, err := pcapio.NewReader(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 2 {
		t.Fatalf("records %d err=%v", len(recs), err)
	}
	if !bytes.Equal(recs[0].Data, p1) {
		t.Fatal("captured bytes differ from the wire")
	}
	// Captured packets decode as IPv4 (the raw linktype contract).
	if packet.Decode(recs[1].Data, packet.LayerTypeIPv4).TCP() == nil {
		t.Fatal("capture not decodable")
	}
}

func TestRegisterCaptureTap(t *testing.T) {
	rt := middlebox.NewRuntime(nil)
	var sinks []*bytes.Buffer
	RegisterCaptureTap(rt, func() (io.Writer, error) {
		b := &bytes.Buffer{}
		sinks = append(sinks, b)
		return b, nil
	})
	if _, err := rt.Instantiate("u", "pcap-tap", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Instantiate("u", "pcap-tap", nil); err != nil {
		t.Fatal(err)
	}
	if len(sinks) != 2 {
		t.Fatalf("sinks %d, want one per instance", len(sinks))
	}
	// Without a sink factory the type refuses to instantiate.
	rt2 := middlebox.NewRuntime(nil)
	RegisterCaptureTap(rt2, nil)
	if _, err := rt2.Instantiate("u", "pcap-tap", nil); err == nil {
		t.Fatal("instantiated without sink")
	}
}
