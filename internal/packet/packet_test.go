package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	srcIP = MustParseIPv4("10.0.0.1")
	dstIP = MustParseIPv4("192.168.1.20")
	srcM  = MACAddress{0xaa, 0, 0, 0, 0, 1}
	dstM  = MACAddress{0xbb, 0, 0, 0, 0, 2}
)

// buildTCPFrame serializes a full Ethernet/IPv4/TCP/payload frame.
func buildTCPFrame(t *testing.T, srcPort, dstPort uint16, payload []byte) []byte {
	t.Helper()
	ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP, TTL: 64}
	tcp := &TCP{SrcPort: srcPort, DstPort: dstPort, Seq: 1000, Ack: 2000, Flags: TCPAck | TCPPsh, Window: 65535}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := SerializeToBytes(
		&Ethernet{Src: srcM, Dst: dstM, EtherType: EtherTypeIPv4},
		ip, tcp, Payload(payload))
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return data
}

func TestEthernetRoundTrip(t *testing.T) {
	data, err := SerializeToBytes(&Ethernet{Src: srcM, Dst: dstM, EtherType: EtherTypeIPv4}, Payload("hi"))
	if err != nil {
		t.Fatal(err)
	}
	var e Ethernet
	if err := e.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if e.Src != srcM || e.Dst != dstM || e.EtherType != EtherTypeIPv4 {
		t.Fatalf("decoded %+v", e)
	}
	if string(e.LayerPayload()) != "hi" {
		t.Fatalf("payload %q", e.LayerPayload())
	}
}

func TestEthernetTooShort(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); err == nil {
		t.Fatal("13-byte frame decoded without error")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoUDP, TTL: 32, ID: 77, TOS: 4}
	data, err := SerializeToBytes(ip, Payload("payload-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if err := got.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if got.Src != srcIP || got.Dst != dstIP || got.Protocol != IPProtoUDP || got.TTL != 32 || got.ID != 77 || got.TOS != 4 {
		t.Fatalf("decoded %+v", got)
	}
	if string(got.LayerPayload()) != "payload-bytes" {
		t.Fatalf("payload %q", got.LayerPayload())
	}
	if int(got.Length) != len(data) {
		t.Fatalf("Length %d, want %d", got.Length, len(data))
	}
}

func TestIPv4CorruptChecksumRejected(t *testing.T) {
	data, err := SerializeToBytes(&IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}, Payload("x"))
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0xff // flip TTL without fixing checksum
	var got IPv4
	if err := got.DecodeFromBytes(data); err == nil {
		t.Fatal("corrupted header decoded without error")
	}
}

func TestIPv4BadVersion(t *testing.T) {
	data, _ := SerializeToBytes(&IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}, Payload("x"))
	data[0] = 6<<4 | 5
	var got IPv4
	if err := got.DecodeFromBytes(data); err == nil {
		t.Fatal("version 6 accepted by IPv4 decoder")
	}
}

func TestTCPRoundTripChecksum(t *testing.T) {
	frame := buildTCPFrame(t, 1234, 80, []byte("GET-ish payload"))
	p := Decode(frame, LayerTypeEthernet)
	tcp := p.TCP()
	if tcp == nil {
		t.Fatalf("no TCP layer in %s", p)
	}
	if tcp.SrcPort != 1234 || tcp.DstPort != 80 || tcp.Seq != 1000 || tcp.Ack != 2000 {
		t.Fatalf("decoded %+v", tcp)
	}
	if tcp.Flags != TCPAck|TCPPsh {
		t.Fatalf("flags %b", tcp.Flags)
	}
	// Verify the on-wire checksum against the decoded segment.
	ipPayload := p.IPv4().LayerPayload()
	if !tcp.VerifyChecksum(ipPayload) {
		t.Fatal("valid TCP checksum reported invalid")
	}
	// Corrupt one payload byte: checksum must now fail.
	ipPayload[len(ipPayload)-1] ^= 0x01
	if tcp.VerifyChecksum(ipPayload) {
		t.Fatal("corrupted TCP segment passed checksum")
	}
}

func TestUDPRoundTripChecksum(t *testing.T) {
	ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoUDP}
	udp := &UDP{SrcPort: 5353, DstPort: 53}
	udp.SetNetworkLayerForChecksum(ip)
	data, err := SerializeToBytes(ip, udp, Payload("dns?"))
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(data, LayerTypeIPv4)
	u := p.UDP()
	if u == nil {
		t.Fatalf("no UDP layer in %s", p)
	}
	if u.SrcPort != 5353 || u.DstPort != 53 {
		t.Fatalf("ports %d->%d", u.SrcPort, u.DstPort)
	}
	seg := p.IPv4().LayerPayload()
	if !u.VerifyChecksum(seg) {
		t.Fatal("valid UDP checksum reported invalid")
	}
	seg[len(seg)-1] ^= 0x01
	if u.VerifyChecksum(seg) {
		t.Fatal("corrupted UDP datagram passed checksum")
	}
}

func TestUDPZeroChecksumPasses(t *testing.T) {
	// Serialize without binding the IP layer: checksum stays 0 = unused.
	data, err := SerializeToBytes(&UDP{SrcPort: 1, DstPort: 2}, Payload("x"))
	if err != nil {
		t.Fatal(err)
	}
	var u UDP
	if err := u.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if !u.VerifyChecksum(data) {
		t.Fatal("zero checksum must pass per RFC 768")
	}
}

func TestDecodeFullStackHTTP(t *testing.T) {
	req := "GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: pvn\r\n\r\n"
	frame := buildTCPFrame(t, 40000, 80, []byte(req))
	p := Decode(frame, LayerTypeEthernet)
	if p.errLayer != nil {
		t.Fatalf("decode error: %v", p.errLayer)
	}
	if got := p.String(); got != "Ethernet/IPv4/TCP/HTTP" {
		t.Fatalf("layer stack %q", got)
	}
	h := p.HTTP()
	if !h.IsRequest || h.Method != "GET" || h.Path != "/index.html" {
		t.Fatalf("http %+v", h)
	}
	if h.Host() != "example.com" {
		t.Fatalf("host %q", h.Host())
	}
}

func TestDecodeErrorKeepsOuterLayers(t *testing.T) {
	// Valid Ethernet wrapping garbage where IPv4 should be.
	data, _ := SerializeToBytes(&Ethernet{Src: srcM, Dst: dstM, EtherType: EtherTypeIPv4}, Payload("not-ip"))
	p := Decode(data, LayerTypeEthernet)
	if p.Ethernet() == nil {
		t.Fatal("outer Ethernet layer lost on inner decode failure")
	}
	if p.errLayer == nil {
		t.Fatal("decode failure not recorded")
	}
}

func TestFlowOfAndHashSymmetry(t *testing.T) {
	frame := buildTCPFrame(t, 40000, 443, []byte{0x17, 3, 3, 0, 1, 0})
	p := Decode(frame, LayerTypeEthernet)
	f, ok := FlowOf(p)
	if !ok {
		t.Fatal("FlowOf failed on TCP packet")
	}
	if f.Src.Port != 40000 || f.Dst.Port != 443 || f.Proto != IPProtoTCP {
		t.Fatalf("flow %v", f)
	}
	if f.FastHash() != f.Reverse().FastHash() {
		t.Fatal("FastHash not symmetric")
	}
	if f.Canonical() != f.Reverse().Canonical() {
		t.Fatal("Canonical differs for flow vs reverse")
	}
	if f == f.Reverse() {
		t.Fatal("flow equals its reverse")
	}
}

func TestFlowHashDistinguishesFlows(t *testing.T) {
	f1 := Flow{Proto: IPProtoTCP, Src: Endpoint{srcIP, 1}, Dst: Endpoint{dstIP, 2}}
	f2 := Flow{Proto: IPProtoTCP, Src: Endpoint{srcIP, 1}, Dst: Endpoint{dstIP, 3}}
	if f1.FastHash() == f2.FastHash() {
		t.Fatal("distinct flows hash equal (possible, but deterministic here means a bug)")
	}
}

func TestParseIPv4(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"1.2.3.4", true},
		{"255.255.255.255", true},
		{"0.0.0.0", true},
		{"256.1.1.1", false},
		{"1.2.3", false},
		{"a.b.c.d", false},
		{"1.2.3.4.5", false},
		{"", false},
	}
	for _, c := range cases {
		a, err := ParseIPv4(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseIPv4(%q) err=%v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && a.String() != c.in {
			t.Errorf("round trip %q -> %q", c.in, a.String())
		}
	}
}

func TestChecksumProperties(t *testing.T) {
	// Verifying a buffer containing its own checksum yields zero.
	if err := quick.Check(func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		// Zero a checksum slot, compute, insert, re-verify.
		buf := append([]byte(nil), data...)
		buf[0], buf[1] = 0, 0
		cs := Checksum(buf)
		buf[0], buf[1] = byte(cs>>8), byte(cs)
		return Checksum(buf) == 0
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPrependGrowth(t *testing.T) {
	b := NewBuffer()
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i)
	}
	b.PushBytes(big)          // overflows initial headroom
	b.PushBytes([]byte{1, 2}) // still works after growth
	if b.Len() != 4098 {
		t.Fatalf("Len = %d", b.Len())
	}
	if !bytes.Equal(b.Bytes()[2:10], big[:8]) {
		t.Fatal("content corrupted by growth")
	}
}

func TestBufferClearReuse(t *testing.T) {
	b := NewBuffer()
	b.PushBytes([]byte("first"))
	b.Clear()
	b.PushBytes([]byte("second"))
	if string(b.Bytes()) != "second" {
		t.Fatalf("after reuse: %q", b.Bytes())
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	// Any payload must round-trip through the full stack unchanged.
	if err := quick.Check(func(payload []byte, sport, dport uint16) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}
		tcp := &TCP{SrcPort: sport, DstPort: dport}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := SerializeToBytes(ip, tcp, Payload(payload))
		if err != nil {
			return false
		}
		p := Decode(data, LayerTypeIPv4)
		g := p.TCP()
		if g == nil {
			return false
		}
		// Port-based guessing may interpret the payload as an app
		// layer; compare the TCP payload bytes directly.
		return bytes.Equal(g.LayerPayload(), payload)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RejectsOversizedPayload(t *testing.T) {
	big := make(Payload, 70000)
	_, err := SerializeToBytes(&IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}, big)
	if err == nil {
		t.Fatal("payload beyond 16-bit length field serialized")
	}
}
