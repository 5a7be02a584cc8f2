package packet

import "testing"

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
