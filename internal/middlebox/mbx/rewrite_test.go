package mbx

import (
	"bytes"
	"compress/flate"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// TestRewritersKeepHeaders: every box that rewrites a packet it passes
// on changes only what it means to change. The IPv4 ID, TOS, TTL
// and don't-fragment flag and the TCP urgent pointer come out as they
// went in, and both checksums verify.
func TestRewritersKeepHeaders(t *testing.T) {
	const df = 0x2 // IPv4 flags: reserved, DF, MF
	seg := func(src, dst packet.IPv4Address, sport, dport uint16, payload []byte) []byte {
		t.Helper()
		ip := &packet.IPv4{TOS: 0x28, ID: 0x4242, Flags: df, TTL: 37, Protocol: packet.IPProtoTCP, Src: src, Dst: dst}
		tcp := &packet.TCP{SrcPort: sport, DstPort: dport, Seq: 7, Ack: 9,
			Flags: packet.TCPAck | packet.TCPPsh | packet.TCPUrg, Window: 512, Urgent: 7}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	http := func(h *packet.HTTP) []byte {
		t.Helper()
		msg, err := packet.SerializeToBytes(h)
		if err != nil {
			t.Fatal(err)
		}
		if h.IsRequest {
			return seg(devIP, srvIP, 40001, 80, msg)
		}
		return seg(srvIP, devIP, 80, 40001, msg)
	}
	resp := func(ct, body string) []byte {
		h := &packet.HTTP{StatusCode: 200, StatusText: "OK", Body: []byte(body)}
		h.SetHeader("Content-Type", ct)
		return http(h)
	}
	leak := &packet.HTTP{IsRequest: true, Method: "POST", Path: "/l", Body: []byte("password=hunter2&x=1")}
	leak.SetHeader("Host", "h")

	redactor := NewPIIDetect(PIIRedact, []string{"hunter2"})
	redactor.DetectPatterns = false
	replicas := NewReplicaSelector(serviceAddr)
	replicas.Observe(packet.MustParseIPv4("198.51.100.2"), 20*time.Millisecond)

	cases := []struct {
		box middlebox.Box
		in  []byte
	}{
		{NewTranscoder(0.5), resp("video/mp4", strings.Repeat("V", 1000))},
		{NewCompressor(), resp("text/plain", strings.Repeat("compress me ", 100))},
		{NewWebRenderer(), resp("text/html", "<html><body><p>hello</p>"+strings.Repeat("<br/>", 100)+"</body></html>")},
		{redactor, http(leak)},
		{replicas, seg(devIP, serviceAddr, 40000, 443, []byte("hello"))},
	}
	for _, c := range cases {
		_, rt := ctx(t, c.box)
		out, err := runChain(t, rt, c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.box.Name(), err)
		}
		if bytes.Equal(out, c.in) {
			t.Fatalf("%s passed the packet on unchanged; the case does not reach its rewrite", c.box.Name())
		}
		p := packet.Decode(out, packet.LayerTypeIPv4)
		ip, tcp := p.IPv4(), p.TCP()
		if ip == nil || tcp == nil {
			t.Fatalf("%s: output decodes as %s", c.box.Name(), p)
		}
		if ip.ID != 0x4242 || ip.TOS != 0x28 || ip.TTL != 37 || ip.Flags != df || tcp.Urgent != 7 {
			t.Errorf("%s: id=%#x tos=%#x ttl=%d flags=%#x urgent=%d, want id=0x4242 tos=0x28 ttl=37 flags=%#x urgent=7",
				c.box.Name(), ip.ID, ip.TOS, ip.TTL, ip.Flags, tcp.Urgent, df)
		}
		if !tcp.VerifyChecksum(ip.LayerPayload()) {
			t.Errorf("%s: bad TCP checksum", c.box.Name())
		}
	}
}

// TestHTTPRewritersSetHeaders: each HTTP rewriter overwrites what
// follows the colon of the first header it finds (in any case, with a
// value or with none, and only the first of two), adds one it does not
// find after the last header,
// and leaves every other byte of the header block as it came, however
// it is spaced.
func TestHTTPRewritersSetHeaders(t *testing.T) {
	const odd = "X-Odd:\t spaced \r\n"
	plain := strings.Repeat("compress me ", 100)
	var deflated bytes.Buffer
	w, _ := flate.NewWriter(&deflated, flate.BestSpeed)
	w.Write([]byte(plain))
	w.Close()
	for _, c := range []struct {
		box      middlebox.Box
		in, want string
	}{{
		NewTranscoder(0.5),
		"HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\ncontent-length:1000\r\n" + odd + "Content-Length: 9\r\n\r\n" + strings.Repeat("V", 1000),
		"HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\ncontent-length: 500\r\n" + odd + "Content-Length: 9\r\nX-PVN-Transcoded: 1\r\n\r\n" + strings.Repeat("V", 500),
	}, {
		NewCompressor(),
		"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Encoding:\r\n" + odd + "\r\n" + plain,
		"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Encoding: deflate\r\n" + odd +
			"Content-Length: " + strconv.Itoa(deflated.Len()) + "\r\n\r\n" + deflated.String(),
	}, {
		NewWebRenderer(),
		"HTTP/1.1 200 OK\r\nX-PVN-Rendered:   \r\nCONTENT-TYPE: text/html\r\n" + odd + "\r\n<p>hello</p>" + strings.Repeat("<br/>", 20),
		"HTTP/1.1 200 OK\r\nX-PVN-Rendered: 1\r\nCONTENT-TYPE: text/plain; charset=utf-8\r\n" + odd + "Content-Length: 5\r\n\r\nhello",
	}} {
		_, rt := ctx(t, c.box)
		out, err := runChain(t, rt, tcpSegRev(t, 80, []byte(c.in)))
		if err != nil {
			t.Fatalf("%s: %v", c.box.Name(), err)
		}
		if want := tcpSegRev(t, 80, []byte(c.want)); !bytes.Equal(out, want) {
			t.Errorf("%s rewrote\n%q\nto\n%q\nwant\n%q", c.box.Name(), c.in, out[40:], want[40:])
		}
	}
}

// TestRedactMasksInPlace: redaction masks the secret wherever it sits in
// the path or the body, in any case, and nothing else: a message with an
// empty path, and a header-only fragment, which has no body, keep every
// other byte, a fragment gaining no blank line.
func TestRedactMasksInPlace(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"POST /a/HuNter2/b HTTP/1.1\r\nHost: h\r\n\r\nx=hunTER2&hunter2",
			"POST /a/*******/b HTTP/1.1\r\nHost: h\r\n\r\nx=*******&*******"},
		{"POST  HTTP/1.1\r\nHost: h\r\n\r\npw=HUNTER2", "POST  HTTP/1.1\r\nHost: h\r\n\r\npw=*******"},
		{"GET /l/hunter2 HTTP/1.1\r\nHost: h\r\n", "GET /l/******* HTTP/1.1\r\nHost: h\r\n"},
	} {
		box := NewPIIDetect(PIIRedact, []string{"hunter2"})
		box.DetectPatterns = false
		_, rt := ctx(t, box)
		out, err := runChain(t, rt, tcpSeg(t, 80, []byte(c.in)))
		if err != nil || out == nil {
			t.Fatalf("%q: redact mode lost the packet (err=%v)", c.in, err)
		}
		if want := tcpSeg(t, 80, []byte(c.want)); !bytes.Equal(out, want) {
			t.Errorf("redacted %q\n got %q\nwant %q", c.in, out[40:], c.want)
		}
	}
}

// TestRedactKeepsOptions: a redacted packet keeps its IPv4 and TCP
// options byte for byte, and both its checksums verify.
func TestRedactKeepsOptions(t *testing.T) {
	ipOpts := []byte{0x94, 4, 0, 0}                 // router alert
	tcpOpts := []byte{2, 4, 0x05, 0xb4, 1, 1, 1, 0} // MSS 1460, NOPs, EOL
	plain := tcpSeg(t, 80, []byte("GET /l/hunter2 HTTP/1.1\r\nHost: h\r\n\r\n"))
	in := slices.Concat(plain[:20], ipOpts, plain[20:40], tcpOpts, plain[40:])
	in[0] += byte(len(ipOpts) / 4)
	in[24+12] += byte(len(tcpOpts)/4) << 4
	if err := packet.Reseal(in); err != nil {
		t.Fatal(err)
	}
	box := NewPIIDetect(PIIRedact, []string{"hunter2"})
	_, rt := ctx(t, box)
	out, err := runChain(t, rt, in)
	if err != nil || out == nil || box.Redactions != 1 {
		t.Fatalf("redact mode: out=%v err=%v redactions=%d", out != nil, err, box.Redactions)
	}
	p := packet.Decode(out, packet.LayerTypeIPv4)
	ip, tcp := p.IPv4(), p.TCP()
	if ip == nil || tcp == nil || !tcp.VerifyChecksum(ip.LayerPayload()) {
		t.Fatalf("redacted packet decodes as %s", p)
	}
	if !bytes.Equal(out[20:24], ipOpts) || !bytes.Equal(out[44:52], tcpOpts) {
		t.Errorf("options changed: %x, want %x and %x", out[20:52], ipOpts, tcpOpts)
	}
	if got := p.HTTP().Path; got != "/l/*******" {
		t.Errorf("path %q, want the secret masked", got)
	}
}
