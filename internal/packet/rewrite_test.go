package packet

import (
	"bytes"
	"cmp"
	"testing"
)

// Rewrite names what Reserialize changes in a packet. A zero field keeps
// the packet's own value.
type Rewrite struct {
	// Dst replaces the IPv4 destination address.
	Dst IPv4Address
	// DstPort replaces the TCP or UDP destination port.
	DstPort uint16
	// Payload replaces what the TCP or UDP header carries, or what the
	// IPv4 header carries when there is neither.
	Payload SerializableLayer
}

// Reserialize builds a fresh IPv4 packet from p, an already decoded one,
// with r applied. Every header field r leaves alone is copied: the IPv4
// TOS, ID, flags, fragment offset, TTL, protocol and source, and the
// TCP ports, sequence numbers, flags, window and urgent pointer. Lengths
// and checksums are recomputed; IPv4 and TCP options are not emitted.
// It is the test oracle for the write path the boxes use (an edited copy
// made whole by Reseal): on a packet the serializer built, which has no
// options and a canonical HTTP header block, the two give the same bytes.
func Reserialize(p *Packet, r Rewrite) ([]byte, error) {
	ip := p.IPv4()
	if ip == nil {
		return nil, errf(LayerTypeIPv4, "rewrite of a packet with no IPv4 header")
	}
	nip := *ip
	nip.Dst = cmp.Or(r.Dst, ip.Dst)
	layers, payload := []SerializableLayer{&nip}, ip.payload
	if t := p.TCP(); t != nil {
		nt := *t
		nt.DstPort = cmp.Or(r.DstPort, t.DstPort)
		nt.SetNetworkLayerForChecksum(&nip)
		layers, payload = append(layers, &nt), t.payload
	} else if u := p.UDP(); u != nil {
		nu := *u
		nu.DstPort = cmp.Or(r.DstPort, u.DstPort)
		nu.SetNetworkLayerForChecksum(&nip)
		layers, payload = append(layers, &nu), u.payload
	}
	if r.Payload == nil {
		r.Payload = Payload(payload)
	}
	return SerializeToBytes(append(layers, r.Payload)...)
}

func TestReserializeTCP(t *testing.T) {
	proxy := MustParseIPv4("10.99.0.1")
	ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}
	tcp := &TCP{SrcPort: 1234, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := SerializeToBytes(ip, tcp, Payload("GETx"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Reserialize(Decode(data, LayerTypeIPv4), Rewrite{Dst: proxy, DstPort: 8080})
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(out, LayerTypeIPv4)
	if p.IPv4().Dst != proxy {
		t.Fatalf("dst %v, want %v", p.IPv4().Dst, proxy)
	}
	if p.TCP().DstPort != 8080 {
		t.Fatalf("dport %d, want 8080", p.TCP().DstPort)
	}
	// Checksums must still verify after the rewrite.
	if !p.TCP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("rewritten packet has bad TCP checksum")
	}
	if string(p.TCP().LayerPayload()) != "GETx" {
		t.Fatal("payload corrupted by rewrite")
	}
}

func TestReserializeUDPAndPlainIP(t *testing.T) {
	dst := MustParseIPv4("10.9.9.9")

	// UDP rewrite, port change included.
	ip := &IPv4{Src: MustParseIPv4("10.0.0.1"), Dst: MustParseIPv4("10.0.0.2"), Protocol: IPProtoUDP}
	udp := &UDP{SrcPort: 1000, DstPort: 53}
	udp.SetNetworkLayerForChecksum(ip)
	data, _ := SerializeToBytes(ip, udp, Payload("q"))
	out, err := Reserialize(Decode(data, LayerTypeIPv4), Rewrite{Dst: dst, DstPort: 5353})
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(out, LayerTypeIPv4)
	if p.IPv4().Dst != dst || p.UDP().DstPort != 5353 {
		t.Fatalf("udp rewrite %s", p)
	}
	if !p.UDP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("udp checksum broken")
	}

	// Plain IP (no transport): address rewritten, payload preserved.
	ip2 := &IPv4{Src: MustParseIPv4("10.0.0.1"), Dst: MustParseIPv4("10.0.0.2"), Protocol: 250}
	data2, _ := SerializeToBytes(ip2, Payload("raw"))
	out2, err := Reserialize(Decode(data2, LayerTypeIPv4), Rewrite{Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	p2 := Decode(out2, LayerTypeIPv4)
	if p2.IPv4().Dst != dst || string(p2.IPv4().LayerPayload()) != "raw" {
		t.Fatalf("plain rewrite %s", p2)
	}

	// Non-IPv4 input errors.
	if _, err := Reserialize(Decode([]byte("garbage"), LayerTypeIPv4), Rewrite{Dst: dst}); err == nil {
		t.Fatal("garbage rewritten")
	}
}

// TestResealMatchesSerializer: on a packet the serializer built, Reseal
// recomputes exactly the lengths and checksums the serializer wrote, the
// UDP checksum that sums to 0 included, and changes no other byte.
func TestResealMatchesSerializer(t *testing.T) {
	tcpPkt := func(payload string) []byte {
		ip := &IPv4{TOS: 8, ID: 99, TTL: 9, Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}
		tcp := &TCP{SrcPort: 1234, DstPort: 80, Seq: 5, Flags: TCPAck, Window: 100}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := SerializeToBytes(ip, tcp, Payload(payload))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	udpPkt := func(payload []byte) []byte {
		ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoUDP}
		udp := &UDP{SrcPort: 1000, DstPort: 53}
		udp.SetNetworkLayerForChecksum(ip)
		data, err := SerializeToBytes(ip, udp, Payload(payload))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// A payload word equal to the checksum of a zero word makes the
	// datagram sum to 0, which goes on the wire as 0xffff.
	zeroSum := udpPkt([]byte{0, 0})
	zeroSum = udpPkt(zeroSum[26:28])
	if zeroSum[26] != 0xff || zeroSum[27] != 0xff {
		t.Fatalf("udp checksum %x, want ffff", zeroSum[26:28])
	}
	for name, want := range map[string][]byte{
		"tcp": tcpPkt("GET / HTTP/1.1\r\n\r\n"), "tcp odd": tcpPkt("odd"), "tcp empty": tcpPkt(""),
		"udp": udpPkt([]byte("q")), "udp zero sum": zeroSum,
	} {
		got := append([]byte(nil), want...)
		for _, i := range []int{2, 3, 10, 11} {
			got[i] = 0xee
		}
		if got[9] == IPProtoTCP {
			got[36], got[37] = 0xee, 0xee
		} else {
			got[24], got[25], got[26], got[27] = 0xee, 0xee, 0xee, 0xee
		}
		if err := Reseal(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resealed\n%x\nwant\n%x", name, got, want)
		}
	}
}

// TestResealKeepsOptions: a packet with IPv4 and TCP options keeps them
// byte for byte through an edit and Reseal, and decodes with both
// checksums valid.
func TestResealKeepsOptions(t *testing.T) {
	ipOpts := []byte{0x94, 4, 0, 0}                 // router alert
	tcpOpts := []byte{2, 4, 0x05, 0xb4, 1, 1, 1, 0} // MSS 1460, NOPs, EOL
	pkt := []byte{0x45 + byte(len(ipOpts)/4), 0, 0, 0, 0, 1, 0x40, 0, 64, IPProtoTCP, 0, 0}
	pkt = append(append(append(pkt, srcIP[:]...), dstIP[:]...), ipOpts...)
	pkt = append(pkt, 0x30, 0x39, 0, 80, 0, 0, 0, 1, 0, 0, 0, 0, byte(5+len(tcpOpts)/4)<<4, TCPAck, 1, 0, 0, 0, 0, 0)
	pkt = append(append(pkt, tcpOpts...), "payload"...)
	if err := Reseal(pkt); err != nil {
		t.Fatal(err)
	}
	pkt[len(pkt)-1] = '!' // an edit in place
	if err := Reseal(pkt); err != nil {
		t.Fatal(err)
	}
	p := Decode(pkt, LayerTypeIPv4)
	ip, tcp := p.IPv4(), p.TCP()
	if ip == nil || tcp == nil || !tcp.VerifyChecksum(ip.LayerPayload()) {
		t.Fatalf("resealed packet decodes as %s", p)
	}
	if !bytes.Equal(pkt[20:24], ipOpts) || !bytes.Equal(pkt[44:52], tcpOpts) || string(tcp.LayerPayload()) != "payloa!" {
		t.Fatalf("options or payload changed: %x", pkt)
	}
}

// TestResealRefuses: what is not an IPv4 packet with a whole header is
// refused, and left as it was.
func TestResealRefuses(t *testing.T) {
	v6 := make([]byte, 40)
	v6[0] = 0x60
	longIHL := make([]byte, 24)
	longIHL[0] = 0x46 + 1 // a 28-byte header in 24 bytes
	for name, b := range map[string][]byte{
		"empty": {}, "short": {0x45, 0, 0}, "v6": v6, "ihl 4": {0x44, 19: 0}, "ihl past end": longIHL,
	} {
		before := append([]byte(nil), b...)
		if Reseal(b) == nil || !bytes.Equal(b, before) {
			t.Errorf("%s: resealed", name)
		}
	}
}
