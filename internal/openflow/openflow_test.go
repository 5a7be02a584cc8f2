package openflow

import (
	"bytes"
	"testing"
	"time"

	"pvn/internal/packet"
)

var (
	clientIP = packet.MustParseIPv4("10.1.0.5")
	videoIP  = packet.MustParseIPv4("203.0.113.9")
	webIP    = packet.MustParseIPv4("198.51.100.7")
)

// tcpPacket builds a raw IPv4/TCP packet.
func tcpPacket(t testing.TB, src, dst packet.IPv4Address, sport, dport uint16, payload string) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
	if err != nil {
		t.Fatalf("build packet: %v", err)
	}
	return data
}

func TestMatchWildcardAndFields(t *testing.T) {
	data := tcpPacket(t, clientIP, webIP, 4000, 443, "x")
	f := ExtractFields(packet.Decode(data, packet.LayerTypeIPv4), 3)

	if f.SrcIP != clientIP || f.DstIP != webIP || f.SrcPort != 4000 || f.DstPort != 443 || f.Proto != packet.IPProtoTCP || f.InPort != 3 {
		t.Fatalf("extracted %+v", f)
	}

	any := &Match{}
	if !any.Matches(f) {
		t.Fatal("empty match must match everything")
	}
	m := &Match{Fields: FieldDstPort | FieldProto, DstPort: 443, Proto: packet.IPProtoTCP}
	if !m.Matches(f) {
		t.Fatal("dport=443 match failed")
	}
	m.DstPort = 80
	if m.Matches(f) {
		t.Fatal("dport=80 matched a 443 packet")
	}
}

func TestMatchPrefix(t *testing.T) {
	f := PacketFields{DstIP: packet.MustParseIPv4("203.0.113.200")}
	m := &Match{Fields: FieldDstIP, DstIP: packet.MustParseIPv4("203.0.113.0"), DstBits: 24}
	if !m.Matches(f) {
		t.Fatal("/24 prefix failed to match in-prefix address")
	}
	f.DstIP = packet.MustParseIPv4("203.0.114.1")
	if m.Matches(f) {
		t.Fatal("/24 prefix matched out-of-prefix address")
	}
	exact := &Match{Fields: FieldDstIP, DstIP: packet.MustParseIPv4("203.0.113.200")}
	if exact.Matches(f) {
		t.Fatal("exact match (bits=0 => /32) matched different address")
	}
}

func TestMatchInPort(t *testing.T) {
	m := &Match{Fields: FieldInPort, InPort: 2}
	if m.Matches(PacketFields{InPort: 1}) || !m.Matches(PacketFields{InPort: 2}) {
		t.Fatal("in-port matching wrong")
	}
}

func TestTablePriorityOrder(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 10, Actions: []Action{Output(1)}}, 0)
	tbl.Install(&FlowEntry{Priority: 100, Match: Match{Fields: FieldDstPort, DstPort: 443}, Actions: []Action{Drop()}}, 0)

	acts, e := tbl.Lookup(PacketFields{DstPort: 443}, 100, 0)
	if e == nil || acts[0].Type != ActionTypeDrop {
		t.Fatalf("high-priority drop not selected: %v", acts)
	}
	acts, _ = tbl.Lookup(PacketFields{DstPort: 80}, 100, 0)
	if acts[0].Type != ActionTypeOutput {
		t.Fatalf("low-priority catch-all not selected: %v", acts)
	}
}

func TestTableEqualPriorityFIFO(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 5, Actions: []Action{Output(1)}}, 0)
	tbl.Install(&FlowEntry{Priority: 5, Actions: []Action{Output(2)}}, 0)
	acts, _ := tbl.Lookup(PacketFields{}, 1, 0)
	if acts[0].Port != 1 {
		t.Fatal("equal-priority tie must go to the earliest-installed entry")
	}
}

func TestTableMissDefault(t *testing.T) {
	tbl := NewFlowTable()
	acts, e := tbl.Lookup(PacketFields{}, 1, 0)
	if e != nil || acts[0].Type != ActionTypeController {
		t.Fatalf("table miss: entry=%v actions=%v", e, acts)
	}
}

func TestTableCounters(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 1, Cookie: 42, Actions: []Action{Output(1)}}, 0)
	tbl.Lookup(PacketFields{}, 100, 0)
	tbl.Lookup(PacketFields{}, 50, 0)
	p, b := tbl.StatsByCookie(42)
	if p != 2 || b != 150 {
		t.Fatalf("stats %d/%d, want 2/150", p, b)
	}
}

func TestTableTimeouts(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 1, HardTimeout: time.Second, Actions: []Action{Output(1)}}, 0)
	// Higher priority so lookups touch this entry and refresh its idle
	// timer.
	tbl.Install(&FlowEntry{Priority: 2, IdleTimeout: 500 * time.Millisecond, Actions: []Action{Output(2)}}, 0)
	if exp := tbl.Expire(400 * time.Millisecond); len(exp) != 0 {
		t.Fatalf("premature expiry: %v", exp)
	}
	// Touch the idle entry at 400ms via lookup so it survives 600ms.
	tbl.Lookup(PacketFields{}, 1, 400*time.Millisecond)
	if exp := tbl.Expire(600 * time.Millisecond); len(exp) != 0 {
		t.Fatalf("idle entry expired despite recent use: %v", exp)
	}
	exp := tbl.Expire(1100 * time.Millisecond)
	if len(exp) != 2 {
		t.Fatalf("expired %d entries at 1.1s, want 2", len(exp))
	}
	if tbl.Len() != 0 {
		t.Fatalf("table still has %d entries", tbl.Len())
	}
}

// TestExpireNothingDue: an expiry pass that evicts nothing must not
// publish a snapshot (every worker's flow cache stays valid) and must
// not allocate (the serial switch runs it per packet) — with no timed
// rule installed, and with one installed but not yet due.
func TestExpireNothingDue(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 1, Actions: []Action{Output(1)}}, 0)
	cache, key := NewFlowCache(), CacheKey{InPort: 3}
	check := func(when string, now time.Duration) {
		t.Helper()
		tbl.LookupCached(cache, key, true, 1, now) // sync the cache to the current generation
		tbl.LookupScan(cache, key, true, PacketFields{}, 1, now)
		gen := tbl.snap.Load().gen
		allocs := testing.AllocsPerRun(100, func() {
			if exp := tbl.Expire(now); exp != nil {
				t.Fatalf("%s: expired %v", when, exp)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Expire allocated %v times per call", when, allocs)
		}
		if got := tbl.snap.Load().gen; got != gen {
			t.Errorf("%s: generation moved %d -> %d", when, gen, got)
		}
		if _, hit := tbl.LookupCached(cache, key, true, 1, now); !hit {
			t.Errorf("%s: flow cache was flushed", when)
		}
	}
	check("no timed rule", time.Hour)
	tbl.Install(&FlowEntry{Priority: 0, HardTimeout: time.Minute, IdleTimeout: time.Minute, Actions: []Action{Drop()}}, 0)
	check("timed rule not due", 59*time.Second)
	if exp := tbl.Expire(time.Minute); len(exp) != 1 || tbl.Len() != 1 {
		t.Fatalf("due rule: expired %d, %d left", len(exp), tbl.Len())
	}
	if _, hit := tbl.LookupCached(cache, key, true, 1, time.Minute); hit {
		t.Error("flow cache survived an eviction")
	}
	check("timed rule gone", time.Hour)
}

func TestRemoveByCookie(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Cookie: 1, Actions: []Action{Output(1)}}, 0)
	tbl.Install(&FlowEntry{Cookie: 2, Actions: []Action{Output(2)}}, 0)
	tbl.Install(&FlowEntry{Cookie: 1, Actions: []Action{Output(3)}}, 0)
	if n := tbl.RemoveByCookie(1); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if tbl.Len() != 1 {
		t.Fatalf("table has %d entries, want 1", tbl.Len())
	}
}

func TestMeterPolice(t *testing.T) {
	m := &Meter{RateBps: 8000, BurstBytes: 1000} // 1 KB/s, 1 KB burst
	if !m.Police(0, 1000) {
		t.Fatal("initial burst rejected")
	}
	if m.Police(0, 1) {
		t.Fatal("empty bucket accepted a packet")
	}
	// After one second, 1000 bytes of tokens are back.
	if !m.Police(time.Second, 900) {
		t.Fatal("refilled bucket rejected packet")
	}
	if m.Conformed != 2 || m.Exceeded != 1 {
		t.Fatalf("counters %d/%d", m.Conformed, m.Exceeded)
	}
}

func TestMeterShapeDelay(t *testing.T) {
	m := &Meter{RateBps: 8000, BurstBytes: 1000}
	if d := m.Shape(0, 1000); d != 0 {
		t.Fatalf("in-burst shape delayed %v", d)
	}
	d := m.Shape(0, 1000) // 1000 bytes of debt at 1000 B/s = 1s
	if d != time.Second {
		t.Fatalf("shape delay %v, want 1s", d)
	}
}

func TestMeterSustainedRate(t *testing.T) {
	// Shaping 10 KB through a 1 KB/s meter must spread over ~10s.
	m := &Meter{RateBps: 8000, BurstBytes: 1000}
	var maxDelay time.Duration
	for i := 0; i < 10; i++ {
		d := m.Shape(0, 1000)
		if d > maxDelay {
			maxDelay = d
		}
	}
	if maxDelay < 8*time.Second || maxDelay > 10*time.Second {
		t.Fatalf("last packet delayed %v, want ~9s", maxDelay)
	}
}

type fakeChains struct {
	transform func([]byte) []byte
	delay     time.Duration
}

func (f *fakeChains) ExecuteChain(chain string, data []byte) ([]byte, time.Duration, error) {
	out := f.transform(data)
	return out, f.delay, nil
}

func TestSwitchOutputPath(t *testing.T) {
	sw := NewSwitch("s1", nil)
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{Output(7)}}, 0)
	d := sw.Process(tcpPacket(t, clientIP, webIP, 1, 80, "x"), 0)
	if d.Verdict != VerdictOutput || d.Port != 7 {
		t.Fatalf("disposition %+v", d)
	}
}

func TestSwitchTableMissGoesToController(t *testing.T) {
	sw := NewSwitch("s1", nil)
	in := tcpPacket(t, clientIP, webIP, 1, 80, "x")
	d := sw.Process(in, 5)
	if d.Verdict != VerdictController || d.Entry != nil {
		t.Fatalf("disposition %+v", d)
	}
	if sw.PacketIns != 1 || !bytes.Equal(d.Data, in) {
		t.Fatalf("punt not counted or data altered: packet-ins=%d", sw.PacketIns)
	}
}

func TestSwitchMiddleboxChainTransforms(t *testing.T) {
	sw := NewSwitch("s1", nil)
	sw.Chains = &fakeChains{
		transform: func(b []byte) []byte { return append(b, 0xEE) },
		delay:     45 * time.Microsecond,
	}
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{ToMiddlebox("chain1"), Output(2)}}, 0)
	in := tcpPacket(t, clientIP, webIP, 1, 80, "x")
	d := sw.Process(in, 0)
	if d.Verdict != VerdictOutput {
		t.Fatalf("verdict %v", d.Verdict)
	}
	if len(d.Data) != len(in)+1 {
		t.Fatal("middlebox transform not applied")
	}
	if d.Delay != 45*time.Microsecond {
		t.Fatalf("delay %v", d.Delay)
	}
}

func TestSwitchMiddleboxDropsWhenChainDrops(t *testing.T) {
	sw := NewSwitch("s1", nil)
	sw.Chains = &fakeChains{transform: func(b []byte) []byte { return nil }}
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{ToMiddlebox("c"), Output(2)}}, 0)
	d := sw.Process(tcpPacket(t, clientIP, webIP, 1, 80, "x"), 0)
	if d.Verdict != VerdictDrop {
		t.Fatalf("verdict %v, want drop", d.Verdict)
	}
}

func TestSwitchMiddleboxFailClosedWithoutExecutor(t *testing.T) {
	sw := NewSwitch("s1", nil)
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{ToMiddlebox("c"), Output(2)}}, 0)
	if d := sw.Process(tcpPacket(t, clientIP, webIP, 1, 80, "x"), 0); d.Verdict != VerdictDrop {
		t.Fatalf("verdict %v, want drop (fail closed)", d.Verdict)
	}
}

func TestSwitchMeterAddsDelay(t *testing.T) {
	now := time.Duration(0)
	sw := NewSwitch("s1", func() time.Duration { return now })
	// Burst of 60 bytes: the 50-byte packet fits once, then debt builds.
	sw.Table.AddMeter("shape", Meter{RateBps: 8000, BurstBytes: 60})
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{Metered("shape"), Output(1)}}, 0)
	pkt := tcpPacket(t, clientIP, videoIP, 1, 80, "0123456789")
	d1 := sw.Process(pkt, 0)
	d2 := sw.Process(pkt, 0)
	if d1.Delay != 0 && d2.Delay == 0 {
		t.Fatal("meter delays inverted")
	}
	if d2.Delay <= d1.Delay {
		t.Fatalf("second packet not shaped more: %v then %v", d1.Delay, d2.Delay)
	}
}

func TestSwitchSetDstRewrites(t *testing.T) {
	sw := NewSwitch("s1", nil)
	proxy := packet.MustParseIPv4("10.99.0.1")
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{SetDst(proxy, 8080), Output(1)}}, 0)
	d := sw.Process(tcpPacket(t, clientIP, webIP, 1234, 80, "GETx"), 0)
	p := packet.Decode(d.Data, packet.LayerTypeIPv4)
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

func TestSwitchTunnelVerdict(t *testing.T) {
	sw := NewSwitch("s1", nil)
	sw.Table.Install(&FlowEntry{Priority: 1, Actions: []Action{Tunnel("cloud")}}, 0)
	d := sw.Process(tcpPacket(t, clientIP, webIP, 1, 443, "x"), 0)
	if d.Verdict != VerdictTunnel || d.TunnelName != "cloud" {
		t.Fatalf("disposition %+v", d)
	}
}

func TestSwitchEmptyActionListDrops(t *testing.T) {
	sw := NewSwitch("s1", nil)
	sw.Table.Install(&FlowEntry{Priority: 1}, 0)
	if d := sw.Process(tcpPacket(t, clientIP, webIP, 1, 80, "x"), 0); d.Verdict != VerdictDrop {
		t.Fatalf("verdict %v", d.Verdict)
	}
}

func TestFlowModApply(t *testing.T) {
	tbl := NewFlowTable()
	add := FlowMod{Command: FlowAdd, Priority: 9, Cookie: 5, Actions: []Action{Output(1)}}
	if n := add.Apply(tbl, 0); n != 1 || tbl.Len() != 1 {
		t.Fatalf("add affected %d", n)
	}
	del := FlowMod{Command: FlowDeleteCookie, Cookie: 5}
	if n := del.Apply(tbl, 0); n != 1 || tbl.Len() != 0 {
		t.Fatalf("delete affected %d", n)
	}
	if n := (&FlowMod{Command: "bogus"}).Apply(tbl, 0); n != 0 {
		t.Fatalf("bogus command affected %d", n)
	}
}

func TestMatchStringAndSpecificity(t *testing.T) {
	m := &Match{Fields: FieldDstIP | FieldDstPort | FieldProto, DstIP: videoIP, DstBits: 24, DstPort: 443, Proto: 6}
	if m.Specificity() != 3 {
		t.Fatalf("specificity %d", m.Specificity())
	}
	if s := m.String(); s == "" || s == "any" {
		t.Fatalf("string %q", s)
	}
	if (&Match{}).String() != "any" {
		t.Fatal("empty match should render as any")
	}
}
