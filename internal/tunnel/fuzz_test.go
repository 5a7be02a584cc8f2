package tunnel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pvn/internal/packet"
)

// FuzzDecap: tunnel frames come from endpoints the device does not
// control. Decap must never panic, must accept and refuse exactly what a
// full decode of the frame does, and the inner packet of any frame it
// accepts, re-encapsulated under the same tunnel ID, must decapsulate to
// the same bytes and ID.
func FuzzDecap(f *testing.F) {
	src, dst := packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("203.0.113.9")
	ip := &packet.IPv4{Src: src, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	inner, err := packet.SerializeToBytes(ip, tcp, packet.Payload("hello"))
	if err != nil {
		f.Fatal(err)
	}
	frame, err := Encap(inner, src, dst, 42)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)-len(inner)]) // header only, empty inner
	f.Add(frame[:Overhead-1])            // truncated tunnel header
	f.Add(inner)                         // not a tunnel frame
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, id, err := Decap(data)
		if wantIn, wantID, wantErr := fullDecap(data); err != wantErr || id != wantID || !bytes.Equal(got, wantIn) {
			t.Fatalf("Decap = %x, %d, %v; a full decode gives %x, %d, %v", got, id, err, wantIn, wantID, wantErr)
		}
		if err != nil {
			return
		}
		again, err := Encap(got, src, dst, id)
		if err != nil {
			return // the inner packet is too large to wrap again
		}
		back, backID, err := Decap(again)
		if err != nil {
			t.Fatalf("re-encapsulated frame failed Decap: %v", err)
		}
		if backID != id || !bytes.Equal(back, got) {
			t.Fatalf("round trip changed the frame: id %d -> %d, %d -> %d inner bytes", id, backID, len(got), len(back))
		}
	})
}

// fullDecap is Decap over a full packet.Decode of the frame, the
// reference Decap's header-by-header decode is held to.
func fullDecap(outer []byte) ([]byte, uint32, error) {
	u := packet.Decode(outer, packet.LayerTypeIPv4).UDP()
	if u == nil || u.DstPort != Port {
		return nil, 0, ErrNotTunnel
	}
	payload := u.LayerPayload()
	if len(payload) < headerLen {
		return nil, 0, ErrTruncated
	}
	if payload[0] != magic[0] || payload[1] != magic[1] {
		return nil, 0, ErrNotTunnel
	}
	return payload[headerLen:], binary.BigEndian.Uint32(payload[3:7]), nil
}
