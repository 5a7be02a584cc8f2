package openflow

import (
	"bytes"
	"strconv"
	"testing"
	"time"
	"unsafe"

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

	acts, e := tbl.Lookup(PacketFields{DstPort: 443}, 100)
	if e == nil || acts[0].Type != ActionTypeDrop {
		t.Fatalf("high-priority drop not selected: %v", acts)
	}
	acts, _ = tbl.Lookup(PacketFields{DstPort: 80}, 100)
	if acts[0].Type != ActionTypeOutput {
		t.Fatalf("low-priority catch-all not selected: %v", acts)
	}
}

func TestTableEqualPriorityFIFO(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 5, Actions: []Action{Output(1)}}, 0)
	tbl.Install(&FlowEntry{Priority: 5, Actions: []Action{Output(2)}}, 0)
	acts, _ := tbl.Lookup(PacketFields{}, 1)
	if acts[0].Port != 1 {
		t.Fatal("equal-priority tie must go to the earliest-installed entry")
	}
}

func TestTableMissDefault(t *testing.T) {
	tbl := NewFlowTable()
	acts, e := tbl.Lookup(PacketFields{}, 1)
	if e != nil || acts[0].Type != ActionTypeController {
		t.Fatalf("table miss: entry=%v actions=%v", e, acts)
	}
}

func TestTableCounters(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Install(&FlowEntry{Priority: 1, Cookie: 42, Actions: []Action{Output(1)}}, 0)
	tbl.Lookup(PacketFields{}, 100)
	tbl.Lookup(PacketFields{}, 50)
	p, b := tbl.StatsByCookie(42)
	if p != 2 || b != 150 {
		t.Fatalf("stats %d/%d, want 2/150", p, b)
	}
}

// TestFlowEntryFootprint holds one installed rule's own bytes, its share
// of what a resident subscriber costs the host: a rule is its match,
// actions, cookie and counters, and nothing else.
func TestFlowEntryFootprint(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the budget is for 64-bit words")
	}
	if got := unsafe.Sizeof(FlowEntry{}); got > 80 {
		t.Errorf("FlowEntry is %d bytes, budget 80", got)
	}
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

// TestSwitchProcessZeroAlloc: on a no-chain rule the inline path
// allocates nothing per packet, on a flow-cache hit and on a miss (a
// header decode into the switch's decoder and a snapshot lookup).
func TestSwitchProcessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sw := NewSwitch("s1", nil)
	sw.Table.Install(&FlowEntry{Priority: 1, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(1)}}, 0)
	const flows = 256
	frames := make([][]byte, flows)
	for i := range frames {
		frames[i] = tcpPacket(t, clientIP, webIP, uint16(1000+i), 80, "x")
	}
	next := 0
	process := func() {
		if d := sw.Process(frames[next%flows], 0); d.Verdict != VerdictOutput || d.Entry == nil {
			t.Fatalf("packet %d: %v", next, d.Verdict)
		}
		next++
	}
	for range frames {
		process() // memoize every flow
	}
	if n := testing.AllocsPerRun(flows, process); n != 0 {
		t.Errorf("cache hit: %v allocs per packet", n)
	}
	// A rule write empties the cache but keeps the storage its map grew,
	// so each flow is a miss once more, decoded and looked up again.
	sw.Table.Install(&FlowEntry{Priority: 0, Actions: []Action{Drop()}}, 0)
	next = 0
	if n := testing.AllocsPerRun(flows-1, process); n != 0 {
		t.Errorf("cache miss: %v allocs per packet", n)
	}
	if len(sw.cache.m) != flows {
		t.Fatalf("%d flows memoized after the miss pass, want %d: the packets did not all miss", len(sw.cache.m), flows)
	}
}

func TestMatchString(t *testing.T) {
	m := &Match{Fields: FieldDstIP | FieldDstPort | FieldProto, DstIP: videoIP, DstBits: 24, DstPort: 443, Proto: 6}
	if s := m.String(); s == "" || s == "any" {
		t.Fatalf("string %q", s)
	}
	if (&Match{}).String() != "any" {
		t.Fatal("empty match should render as any")
	}
}
