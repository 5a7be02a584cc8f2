package dataplane

// Flow-cache poisoning: Submit peeks the 5-tuple cache key from raw
// bytes without the length and checksum checks the decoder applies, and
// the miss path used to memoize whatever the decoder's view of the
// packet matched under that key. One malformed frame could so plant the
// wrong rule for every well-formed packet of its 5-tuple — a drop, or a
// forward that skips the flow's middlebox chain. Both tests fail against
// the pre-fix code. Switch.Process runs the same cached path, so the
// test holds it and the pipeline to the refSwitch oracle, which decodes
// every frame and caches nothing.

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// badIPChecksum returns frame with its IPv4 header checksum broken: the
// peek still reads its addresses and ports, the decoder rejects it.
func badIPChecksum(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[10] ^= 0xff
	return out
}

// cutTCPHeader returns frame cut to 28 bytes — the IPv4 header and the
// first 8 bytes of the TCP header, total length and checksum fixed up.
// The peek still reads both ports; the decoder finds no TCP layer.
func cutTCPHeader(frame []byte) []byte {
	out := append([]byte(nil), frame[:28]...)
	binary.BigEndian.PutUint16(out[2:4], 28)
	out[10], out[11] = 0, 0
	binary.BigEndian.PutUint16(out[10:12], packet.Checksum(out[:20]))
	return out
}

// port80Frames builds n distinct well-formed segments of one 5-tuple
// from dev to port 80.
func port80Frames(t *testing.T, dev packet.IPv4Address, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		ip := &packet.IPv4{Src: dev, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: 40000, DstPort: 80, Seq: uint32(i)}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("GET / HTTP/1.1\r\n\r\n"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// poisonRules is a subscriber's compiled pair — port 80 out of port 2
// (standing in for the via= chain), everything else of its out of port
// 1 — over an operator default that drops what no subscriber claims.
func poisonRules(tbl *openflow.FlowTable, dev packet.IPv4Address) {
	for _, e := range []*openflow.FlowEntry{
		{Priority: 100, Cookie: 1, Actions: []openflow.Action{openflow.Output(2)},
			Match: openflow.Match{Fields: openflow.FieldSrcIP | openflow.FieldProto | openflow.FieldDstPort,
				SrcIP: dev, SrcBits: 32, Proto: packet.IPProtoTCP, DstPort: 80}},
		{Priority: 0, Cookie: 1, Actions: []openflow.Action{openflow.Output(1)},
			Match: openflow.Match{Fields: openflow.FieldSrcIP, SrcIP: dev, SrcBits: 32}},
		{Priority: 0, Cookie: 2, Actions: []openflow.Action{openflow.Drop()}},
	} {
		tbl.Install(e, 0)
	}
}

func TestMalformedFrameDoesNotPoisonFlowCache(t *testing.T) {
	dev := packet.MustParseIPv4("10.0.0.5")
	good := port80Frames(t, dev, 10)
	for _, tc := range []struct {
		name   string
		poison []byte
	}{
		// Decodes to nothing, matches the operator drop: memoized, it
		// drops the flow.
		{"broken IPv4 checksum", badIPChecksum(good[0])},
		// Decodes to a portless TCP packet, matches the catch-all:
		// memoized, it carries the flow past its port-80 rule.
		{"TCP header cut to 8 bytes", cutTCPHeader(good[0])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newRefSwitch(nil, func() time.Duration { return 0 })
			poisonRules(ref.table, dev)
			sw := openflow.NewSwitch("inline", nil)
			poisonRules(sw.Table, dev)
			var port2 atomic.Int64
			p := New(Config{Shards: 1, Policy: Block, OnOutput: func(port uint16, _ []byte) {
				if port == 2 {
					port2.Add(1)
				}
			}})
			poisonRules(p.Table(), dev)
			p.Start()
			defer p.Stop()

			if r, s := ref.process(tc.poison, 0), sw.Process(tc.poison, 0); r.Verdict != s.Verdict || r.Port != s.Port {
				t.Fatalf("malformed frame: Switch.Process %v port %d, oracle %v port %d", s.Verdict, s.Port, r.Verdict, r.Port)
			}
			p.Submit(tc.poison, 0)
			p.Drain()
			for _, f := range good {
				if d := ref.process(f, 0); d.Verdict != openflow.VerdictOutput || d.Port != 2 {
					t.Fatalf("oracle: %v port %d, want output on port 2", d.Verdict, d.Port)
				}
				if d := sw.Process(f, 0); d.Verdict != openflow.VerdictOutput || d.Port != 2 {
					t.Fatalf("Switch.Process: %v port %d, want output on port 2", d.Verdict, d.Port)
				}
				p.Submit(f, 0)
			}
			p.Drain()
			if got := port2.Load(); got != int64(len(good)) {
				st := p.Stats().Total()
				t.Errorf("%d of %d well-formed packets took the port-80 rule (outputs=%d drops=%d)", got, len(good), st.Outputs, st.Drops)
			}
			for _, cookie := range []uint64{1, 2} {
				rp, rb := ref.table.StatsByCookie(cookie)
				for name, tbl := range map[string]*openflow.FlowTable{"Switch.Process": sw.Table, "pipeline": p.Table()} {
					if gp, gb := tbl.StatsByCookie(cookie); rp != gp || rb != gb {
						t.Errorf("%s: cookie %d billed %d pkts/%d B, oracle %d/%d", name, cookie, gp, gb, rp, rb)
					}
				}
			}
			if hits := p.Stats().Total().CacheHits; hits != int64(len(good))-1 {
				t.Errorf("cache hits = %d, want %d: the well-formed flow must still be memoized", hits, len(good)-1)
			}
		})
	}
}
