package packet_test

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/packet"
)

// FuzzRewrite holds the write path the rewriting boxes share (copy the
// packet, edit the bytes an HTTPView of it points at, Reseal) to the
// Reserialize oracle. Packets are built by the serializer from fuzzed
// header fields, so the header block is canonical and there are no
// options; on those the transcoder (a body replacement and two header
// sets, each header found or not, with or without a value) and
// replica-select (a destination change) give the oracle's bytes. With
// fuzzed IPv4 and TCP options spliced in, their output keeps the options
// verbatim, decodes with valid checksums and carries the same message.
func FuzzRewrite(f *testing.F) {
	f.Add("Content-Length", "12", "X-Other", "", []byte("video bytes!"), uint16(500), uint32(0xc6336402), []byte{}, []byte{})
	f.Add("x-pvn-transcoded", "", "content-LENGTH", " 7 ", []byte("v"), uint16(999), uint32(0), []byte{0x94, 4}, []byte{2, 4, 5, 0xb4, 1, 1, 1})
	f.Add("content-length", "3", "Content-Length", "", []byte("two lengths"), uint16(1), uint32(7), []byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, name1, value1, name2, value2 string, body []byte, permille uint16, dst uint32, ipOpts, tcpOpts []byte) {
		h := &packet.HTTP{StatusCode: 200, StatusText: "OK", Body: body[:min(len(body), 4096)], Headers: []packet.HTTPHeader{
			{Name: "Content-Type", Value: "video/mp4"},
			{Name: token(name1), Value: text(value1)},
			{Name: token(name2), Value: text(value2)},
		}}
		service, replica := packet.MustParseIPv4("203.0.113.100"), packet.IPv4Address{byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst) | 1}
		ip := &packet.IPv4{TOS: 4, ID: 7, TTL: 33, Protocol: packet.IPProtoTCP, Src: service, Dst: packet.MustParseIPv4("10.0.0.5")}
		tcp := &packet.TCP{SrcPort: 80, DstPort: 40001, Seq: 1, Ack: 2, Flags: packet.TCPAck, Window: 9, Urgent: 3}
		tcp.SetNetworkLayerForChecksum(ip)
		resp, err := packet.SerializeToBytes(ip, tcp, h)
		if err != nil {
			t.Fatal(err)
		}
		ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort = ip.Dst, service, 40001, 80
		req, err := packet.SerializeToBytes(ip, tcp, packet.Payload("GET / HTTP/1.1\r\n\r\n"))
		if err != nil {
			t.Fatal(err)
		}

		ratio := float64(permille%1000+1) / 1000
		p := packet.Decode(resp, packet.LayerTypeIPv4)
		want := resp
		if m := p.HTTP(); m == nil {
			t.Fatalf("serialized response decodes as %s", p)
		} else if len(m.Body) > 0 {
			n := max(int(float64(len(m.Body))*ratio), 1)
			nm := *m
			nm.Headers, nm.Body = slices.Clone(m.Headers), m.Body[:n]
			nm.SetHeader("Content-Length", strconv.Itoa(n))
			nm.SetHeader("X-PVN-Transcoded", "1")
			if want, err = packet.Reserialize(p, packet.Rewrite{Payload: &nm}); err != nil {
				t.Fatal(err)
			}
		}
		wantReq, err := packet.Reserialize(packet.Decode(req, packet.LayerTypeIPv4), packet.Rewrite{Dst: replica})
		if err != nil {
			t.Fatal(err)
		}
		transcoder := func() middlebox.Box { return mbx.NewTranscoder(ratio) }
		selector := func() middlebox.Box {
			rs := mbx.NewReplicaSelector(service)
			rs.Observe(replica, time.Millisecond)
			return rs
		}
		for _, c := range []struct {
			box     func() middlebox.Box
			in, out []byte
		}{{transcoder, resp, want}, {selector, req, wantReq}} {
			if got := runBox(t, c.box(), c.in); !bytes.Equal(got, c.out) {
				t.Fatalf("%s:\n got %q\nwant %q", c.box().Name(), got, c.out)
			}
			in := withOptions(t, c.in, ipOpts, tcpOpts)
			got := runBox(t, c.box(), in)
			ihl := int(in[0]&0x0f) * 4
			doff := int(in[ihl+12]>>4) * 4
			if !bytes.Equal(got[20:ihl], in[20:ihl]) || !bytes.Equal(got[ihl+20:ihl+doff], in[ihl+20:ihl+doff]) {
				t.Fatalf("%s changed the options:\n got %x\nwant %x", c.box().Name(), got, in)
			}
			q := packet.Decode(got, packet.LayerTypeIPv4)
			if qip, qtcp := q.IPv4(), q.TCP(); qip == nil || qtcp == nil || !qtcp.VerifyChecksum(qip.LayerPayload()) ||
				qip.Dst != packet.IPv4Address(c.out[16:20]) || !bytes.Equal(qtcp.LayerPayload(), c.out[40:]) {
				t.Fatalf("%s: the output with options decodes as %s, not as the oracle's packet with options", c.box().Name(), q)
			}
		}
	})
}

// token makes s a header name the serializer writes and the parser reads
// back as written: printable ASCII without a colon, never empty.
func token(s string) string {
	s = strings.Map(func(r rune) rune {
		if r <= ' ' || r > '~' || r == ':' {
			return -1
		}
		return r
	}, s)
	if s == "" {
		return "X"
	}
	return s
}

// text makes s a header value the parser reads back as written:
// printable ASCII without surrounding spaces, possibly empty.
func text(s string) string {
	return strings.TrimSpace(strings.Map(func(r rune) rune {
		if r < ' ' || r > '~' {
			return -1
		}
		return r
	}, s))
}

// withOptions returns data, a serialized IPv4/TCP packet, with opts
// spliced in after each header (zero-padded to whole words, at most 40
// bytes each), resealed.
func withOptions(t *testing.T, data, ipOpts, tcpOpts []byte) []byte {
	t.Helper()
	pad := func(o []byte) []byte {
		o = o[:min(len(o), 40)]
		return slices.Concat(o, make([]byte, -len(o)&3))
	}
	ipOpts, tcpOpts = pad(ipOpts), pad(tcpOpts)
	out := slices.Concat(data[:20], ipOpts, data[20:40], tcpOpts, data[40:])
	out[0] = 0x45 + byte(len(ipOpts)/4)
	out[20+len(ipOpts)+12] = byte(5+len(tcpOpts)/4) << 4
	if err := packet.Reseal(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// runBox runs data through a chain of box alone and returns what it
// passes on.
func runBox(t *testing.T, box middlebox.Box, data []byte) []byte {
	t.Helper()
	rt := middlebox.NewRuntime(nil)
	rt.Register(&middlebox.Spec{Type: box.Name(), New: func(map[string]string) (middlebox.Box, error) { return box, nil }})
	inst, err := rt.Instantiate("alice", box.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "c", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	rt.Now = func() time.Duration { return time.Second } // past the boot delay
	out, _, err := rt.ExecuteChain("alice/c", data)
	if err != nil || out == nil {
		t.Fatalf("%s: out=%x err=%v", box.Name(), out, err)
	}
	return out
}
