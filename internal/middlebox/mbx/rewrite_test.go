package mbx

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// TestRewritersKeepHeaders: every box that re-serializes a packet it
// passes on changes only what it means to change. The IPv4 ID, TOS, TTL
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
