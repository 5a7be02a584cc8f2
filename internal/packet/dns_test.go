package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func dnsRoundTrip(t *testing.T, in *DNS) *DNS {
	t.Helper()
	data, err := SerializeToBytes(in)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	var out DNS
	if err := out.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &out
}

func TestDNSQueryRoundTrip(t *testing.T) {
	q := &DNS{ID: 0x1234, RD: true, Questions: []DNSQuestion{{Name: "www.example.com", Type: DNSTypeA, Class: DNSClassIN}}}
	got := dnsRoundTrip(t, q)
	if got.ID != 0x1234 || !got.RD || got.QR {
		t.Fatalf("header %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.com" || got.Questions[0].Type != DNSTypeA {
		t.Fatalf("questions %+v", got.Questions)
	}
}

func TestDNSResponseRoundTrip(t *testing.T) {
	addr := MustParseIPv4("93.184.216.34")
	r := &DNS{
		ID: 7, QR: true, AA: true, RA: true, AD: true,
		Questions: []DNSQuestion{{Name: "example.com", Type: DNSTypeA, Class: DNSClassIN}},
		Answers: []DNSRecord{
			{Name: "example.com", Type: DNSTypeA, Class: DNSClassIN, TTL: 300, Data: addr[:]},
			{Name: "example.com", Type: DNSTypeRRSIG, Class: DNSClassIN, TTL: 300, Data: []byte("sig-bytes")},
		},
		Authorities: []DNSRecord{{Name: "example.com", Type: DNSTypeNS, Class: DNSClassIN, TTL: 60, Data: []byte{2, 'n', 's', 0}}},
	}
	got := dnsRoundTrip(t, r)
	if !got.QR || !got.AA || !got.AD {
		t.Fatalf("flags %+v", got)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("answers %d", len(got.Answers))
	}
	if got.Answers[0].A() != addr {
		t.Fatalf("A record %v", got.Answers[0].A())
	}
	if string(got.Answers[1].Data) != "sig-bytes" {
		t.Fatalf("RRSIG data %q", got.Answers[1].Data)
	}
	if len(got.Authorities) != 1 || got.Authorities[0].Type != DNSTypeNS {
		t.Fatalf("authorities %+v", got.Authorities)
	}
}

func TestDNSRcodeRoundTrip(t *testing.T) {
	r := &DNS{ID: 1, QR: true, Rcode: DNSRcodeNXDomain}
	got := dnsRoundTrip(t, r)
	if got.Rcode != DNSRcodeNXDomain {
		t.Fatalf("rcode %d", got.Rcode)
	}
}

func TestDNSCompressionPointer(t *testing.T) {
	// Build a message by hand that uses a compression pointer in the
	// answer name referencing the question name at offset 12.
	var msg []byte
	msg = binary.BigEndian.AppendUint16(msg, 0x42)   // ID
	msg = binary.BigEndian.AppendUint16(msg, 0x8180) // QR|RD|RA
	msg = binary.BigEndian.AppendUint16(msg, 1)      // QD
	msg = binary.BigEndian.AppendUint16(msg, 1)      // AN
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	// Question: example.com A IN
	msg = append(msg, 7)
	msg = append(msg, "example"...)
	msg = append(msg, 3)
	msg = append(msg, "com"...)
	msg = append(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeA)
	msg = binary.BigEndian.AppendUint16(msg, DNSClassIN)
	// Answer: pointer to offset 12.
	msg = append(msg, 0xc0, 12)
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeA)
	msg = binary.BigEndian.AppendUint16(msg, DNSClassIN)
	msg = binary.BigEndian.AppendUint32(msg, 60)
	msg = binary.BigEndian.AppendUint16(msg, 4)
	msg = append(msg, 1, 2, 3, 4)

	var d DNS
	if err := d.DecodeFromBytes(msg); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(d.Answers) != 1 || d.Answers[0].Name != "example.com" {
		t.Fatalf("compressed name decoded as %+v", d.Answers)
	}
	if d.Answers[0].A() != (IPv4Address{1, 2, 3, 4}) {
		t.Fatalf("address %v", d.Answers[0].A())
	}
}

func TestDNSCompressionLoopRejected(t *testing.T) {
	var msg []byte
	msg = binary.BigEndian.AppendUint16(msg, 1)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 1) // one question
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = binary.BigEndian.AppendUint16(msg, 0)
	msg = append(msg, 0xc0, 12) // pointer to itself
	msg = binary.BigEndian.AppendUint16(msg, DNSTypeA)
	msg = binary.BigEndian.AppendUint16(msg, DNSClassIN)
	var d DNS
	if err := d.DecodeFromBytes(msg); err == nil {
		t.Fatal("self-referencing compression pointer accepted")
	}
}

func TestDNSTruncatedInputs(t *testing.T) {
	good := &DNS{ID: 1, Questions: []DNSQuestion{{Name: "a.b", Type: DNSTypeA, Class: DNSClassIN}}}
	data, err := SerializeToBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut++ {
		var d DNS
		if err := d.DecodeFromBytes(data[:cut]); err == nil && cut < len(data)-0 {
			// Short header or truncated question must error. (Every
			// strict prefix of this message is invalid.)
			t.Fatalf("truncated message of %d/%d bytes decoded", cut, len(data))
		}
	}
}

func TestDNSBadLabelRejectedOnSerialize(t *testing.T) {
	d := &DNS{Questions: []DNSQuestion{{Name: "a..b", Type: DNSTypeA, Class: DNSClassIN}}}
	if _, err := SerializeToBytes(d); err == nil {
		t.Fatal("empty label serialized")
	}
}

func TestDNSInUDPStack(t *testing.T) {
	ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoUDP}
	udp := &UDP{SrcPort: 9999, DstPort: 53}
	udp.SetNetworkLayerForChecksum(ip)
	q := &DNS{ID: 5, RD: true, Questions: []DNSQuestion{{Name: "pvn.test", Type: DNSTypeA, Class: DNSClassIN}}}
	data, err := SerializeToBytes(ip, udp, q)
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(data, LayerTypeIPv4)
	if p.errLayer != nil {
		t.Fatalf("decode: %v (%s)", p.errLayer, p)
	}
	d := p.DNS()
	if d == nil {
		t.Fatalf("no DNS layer in %s", p)
	}
	if d.Questions[0].Name != "pvn.test" {
		t.Fatalf("question %+v", d.Questions[0])
	}
}

func TestDNSQuestionsSliceReuse(t *testing.T) {
	var d DNS
	msg1, _ := SerializeToBytes(&DNS{ID: 1, Questions: []DNSQuestion{{Name: "one.example", Type: DNSTypeA, Class: DNSClassIN}}})
	msg2, _ := SerializeToBytes(&DNS{ID: 2})
	if err := d.DecodeFromBytes(msg1); err != nil {
		t.Fatal(err)
	}
	if err := d.DecodeFromBytes(msg2); err != nil {
		t.Fatal(err)
	}
	if len(d.Questions) != 0 {
		t.Fatalf("stale questions after reuse: %+v", d.Questions)
	}
}

func TestDNSSerializedFormStable(t *testing.T) {
	d := &DNS{ID: 3, Questions: []DNSQuestion{{Name: "x.y", Type: DNSTypeA, Class: DNSClassIN}}}
	a, _ := SerializeToBytes(d)
	b, _ := SerializeToBytes(d)
	if !bytes.Equal(a, b) {
		t.Fatal("serialization not deterministic")
	}
}
