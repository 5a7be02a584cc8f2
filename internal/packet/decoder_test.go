package packet

import (
	"strings"
	"testing"
)

func decoderFrame(t *testing.T, sport, dport uint16, payload string) []byte {
	t.Helper()
	ip := &IPv4{Src: MustParseIPv4("10.0.0.5"), Dst: MustParseIPv4("93.184.216.34"), Protocol: IPProtoTCP}
	tcp := &TCP{SrcPort: sport, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := SerializeToBytes(ip, tcp, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecoderMatchesDecode checks the reusable header decoder agrees
// with the allocating Decode on every header field across reuse, i.e.
// that no state leaks from one packet into the next.
func TestDecoderMatchesDecode(t *testing.T) {
	var d Decoder
	frames := [][]byte{
		decoderFrame(t, 40000, 443, "hello"),
		decoderFrame(t, 1234, 80, ""),
		decoderFrame(t, 53, 53, "xyz"),
	}
	// UDP frame in the middle to exercise the transport switch.
	ip := &IPv4{Src: MustParseIPv4("192.0.2.1"), Dst: MustParseIPv4("198.51.100.7"), Protocol: IPProtoUDP}
	udp := &UDP{SrcPort: 5353, DstPort: 53}
	udp.SetNetworkLayerForChecksum(ip)
	uf, err := SerializeToBytes(ip, udp, Payload("q"))
	if err != nil {
		t.Fatal(err)
	}
	frames = append(frames, uf, frames[0])

	for i, data := range frames {
		want := Decode(data, LayerTypeIPv4)
		got := d.DecodeHeaders(data, LayerTypeIPv4)
		wip, gip := want.IPv4(), got.IPv4()
		if wip == nil || gip == nil {
			t.Fatalf("frame %d: missing IPv4 layer (want %v, got %v)", i, wip, gip)
		}
		if wip.Src != gip.Src || wip.Dst != gip.Dst || wip.Protocol != gip.Protocol || wip.Length != gip.Length {
			t.Errorf("frame %d: IPv4 mismatch: want %+v got %+v", i, wip, gip)
		}
		switch {
		case want.TCP() != nil:
			wt, gt := want.TCP(), got.TCP()
			if gt == nil {
				t.Fatalf("frame %d: decoder lost TCP layer", i)
			}
			if wt.SrcPort != gt.SrcPort || wt.DstPort != gt.DstPort || wt.Seq != gt.Seq {
				t.Errorf("frame %d: TCP mismatch: want %+v got %+v", i, wt, gt)
			}
			if string(wt.LayerPayload()) != string(gt.LayerPayload()) {
				t.Errorf("frame %d: payload mismatch", i)
			}
			if !gt.VerifyChecksum(gipSegment(data)) {
				t.Errorf("frame %d: checksum binding broken on reused TCP", i)
			}
		case want.UDP() != nil:
			wu, gu := want.UDP(), got.UDP()
			if gu == nil {
				t.Fatalf("frame %d: decoder lost UDP layer", i)
			}
			if wu.SrcPort != gu.SrcPort || wu.DstPort != gu.DstPort {
				t.Errorf("frame %d: UDP mismatch: want %+v got %+v", i, wu, gu)
			}
		}
	}
}

// gipSegment returns the transport segment bytes of a 20-byte-header
// IPv4 frame.
func gipSegment(data []byte) []byte { return data[20:] }

// TestDecoderStopsAtTransport: DecodeHeaders must not build application
// layers — port-80 traffic decodes to IPv4/TCP, not IPv4/TCP/HTTP.
func TestDecoderStopsAtTransport(t *testing.T) {
	var d Decoder
	data := decoderFrame(t, 40000, 80, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
	p := d.DecodeHeaders(data, LayerTypeIPv4)
	if p.HTTP() != nil {
		t.Error("DecodeHeaders built an HTTP layer")
	}
	if p.TCP() == nil {
		t.Fatal("missing TCP layer")
	}
	if got := string(p.TCP().LayerPayload()); got[:3] != "GET" {
		t.Errorf("application bytes lost: %q", got)
	}
}

// TestDecoderTruncated: errors surface via errLayer, outer layers stay
// usable, and the error does not leak into the next (valid) packet.
func TestDecoderTruncated(t *testing.T) {
	var d Decoder
	good := decoderFrame(t, 40000, 443, "x")
	bad := good[:22] // IPv4 header intact, TCP truncated
	// Rewrite total length so the IPv4 layer itself parses cleanly.
	p := d.DecodeHeaders(bad, LayerTypeIPv4)
	if p.errLayer == nil {
		t.Error("truncated TCP decoded without error")
	}
	if p.IPv4() == nil {
		t.Error("outer IPv4 layer lost on truncation")
	}
	p = d.DecodeHeaders(good, LayerTypeIPv4)
	if p.errLayer != nil {
		t.Errorf("error leaked across reuse: %v", p.errLayer)
	}
	if p.TCP() == nil {
		t.Error("valid frame lost its TCP layer after a truncated one")
	}
}

// TestDecoderPoison: after Poison a view kept from the last decode reads
// the marker, not the packet, and the decoder still decodes exactly.
func TestDecoderPoison(t *testing.T) {
	var d Decoder
	data := decoderFrame(t, 40000, 80, "GET /a HTTP/1.1\r\nHost: h\r\n\r\n")
	p := d.Decode(data, LayerTypeIPv4)
	h := p.HTTP()
	kept := *h // a copy still shares the header array
	d.Poison()
	if h.Method != "" || p.HTTP() != nil || kept.Headers[0].Name != poisonText || kept.Header("Host") != "" {
		t.Errorf("poison missed a view: method %q, layers %v, headers %+v", h.Method, p, kept.Headers)
	}
	if got, want := describe(d.Decode(data, LayerTypeIPv4)), describe(Decode(data, LayerTypeIPv4)); got != want {
		t.Errorf("decode after Poison\n got %s\nwant %s", got, want)
	}
}

// TestDecoderZeroAlloc pins the whole point: steady-state header
// decoding allocates nothing.
func TestDecoderZeroAlloc(t *testing.T) {
	var d Decoder
	data := decoderFrame(t, 40000, 443, "hello world")
	got := testing.AllocsPerRun(200, func() {
		p := d.DecodeHeaders(data, LayerTypeIPv4)
		if p.TCP() == nil {
			t.Fatal("decode failed")
		}
	})
	if got != 0 {
		t.Errorf("DecodeHeaders allocates %.1f per packet, want 0", got)
	}

	// A full decode allocates nothing below HTTP, and for HTTP only the
	// string the header block is parsed from: the layer structs and the
	// header list are the decoder's own.
	for _, tc := range []struct {
		data []byte
		want float64
	}{
		{decoderFrame(t, 40000, 9000, "hello world"), 0},
		{decoderFrame(t, 40000, 80, "GET /a HTTP/1.1\r\nHost: h\r\nAccept: */*\r\nCookie: c\r\nX-A: 1\r\nX-B: 2\r\n\r\nbody"), 1},
	} {
		d.Decode(tc.data, LayerTypeIPv4) // grow the header list
		got := testing.AllocsPerRun(200, func() { d.Decode(tc.data, LayerTypeIPv4) })
		if got != tc.want {
			t.Errorf("Decode of %q allocates %.1f per packet, want %.0f", tc.data[40:], got, tc.want)
		}
	}
}

// BenchmarkDecode times a full decode of an ~800-byte HTTP GET, fresh
// (Decode) and into a reused Decoder.
func BenchmarkDecode(b *testing.B) {
	ip := &IPv4{Src: MustParseIPv4("10.0.0.5"), Dst: MustParseIPv4("93.184.216.34"), Protocol: IPProtoTCP}
	tcp := &TCP{SrcPort: 40000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := SerializeToBytes(ip, tcp, &HTTP{IsRequest: true, Method: "GET", Path: "/abcdefgh", Headers: []HTTPHeader{
		{Name: "Host", Value: "news.example"}, {Name: "User-Agent", Value: "pvn-bench"}, {Name: "Accept", Value: "text/html"},
		{Name: "Cookie", Value: "session " + strings.Repeat("abcdefghij klmnop; ", 36)}}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPacket = Decode(data, LayerTypeIPv4)
		}
	})
	b.Run("reused", func(b *testing.B) {
		var d Decoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPacket = d.Decode(data, LayerTypeIPv4)
		}
	})
}

var benchPacket *Packet
