package dataplane

import (
	"sync"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

// passBox is a minimal middlebox for pipeline tests.
type passBox struct{ n int64 }

func (b *passBox) Name() string { return "pass" }
func (b *passBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	b.n++
	return data, middlebox.VerdictPass, nil
}

func buildRuntime(t testing.TB) *middlebox.Runtime {
	t.Helper()
	rt := middlebox.NewRuntime(func() time.Duration { return time.Second })
	rt.Register(&middlebox.Spec{Type: "pass", New: func(map[string]string) (middlebox.Box, error) {
		return &passBox{}, nil
	}})
	rt.Now = func() time.Duration { return 0 }
	inst, err := rt.Instantiate("u", "pass", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Now = func() time.Duration { return time.Second }
	if _, err := rt.BuildChain("u", "c", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	return rt
}

// installRules populates a table with the canonical test policy:
// dport 80 forward, 443 tunnel, 25 drop, 8080 via chain then forward;
// everything else punts to the controller (table miss).
func installRules(t testing.TB, rt *openflow.FlowTable) {
	t.Helper()
	mk := func(dport uint16, prio int, actions ...openflow.Action) {
		rt.Install(&openflow.FlowEntry{
			Priority: prio,
			Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: dport},
			Actions:  actions,
			Cookie:   7,
		}, 0)
	}
	mk(80, 100, openflow.Output(1))
	mk(443, 90, openflow.Tunnel("wg0"))
	mk(25, 80, openflow.Drop())
	mk(8080, 70, openflow.ToMiddlebox("u/c"), openflow.Output(1))
}

// frames builds n TCP packets spread over many flows and the four rule
// classes above.
func frames(t testing.TB, n int) [][]byte {
	t.Helper()
	dports := []uint16{80, 443, 25, 8080, 9999}
	src := packet.MustParseIPv4("10.0.0.5")
	dst := packet.MustParseIPv4("93.184.216.34")
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(40000 + i%64), DstPort: dports[i%len(dports)]}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("x"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestPipelineMatchesSerial checks that the sharded pipeline reaches the
// same verdicts and bills the same traffic as the serial openflow.Switch
// on the same rule set and traffic, with the same flow mods landing at
// the same packet index on both sides.
func TestPipelineMatchesSerial(t *testing.T) {
	pkts := frames(t, 4000)
	// Malformed twins ahead of the first well-formed packet of two
	// port-80 flows: the peeked cache key is the flow's, the decoded
	// fields are not, and the hygiene rules below give those fields a
	// rule of their own — which must not stick to the flow
	// (poison_test.go).
	pkts = append([][]byte{badIPChecksum(pkts[0]), cutTCPHeader(pkts[5])}, pkts...)
	n := len(pkts)
	dport := func(p uint16) openflow.Match {
		return openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: p}
	}
	out := []openflow.Action{openflow.Output(1)}
	hygiene := func(tbl *openflow.FlowTable) {
		drop := []openflow.Action{openflow.Drop()}
		tbl.Install(&openflow.FlowEntry{Priority: 1, Cookie: 13, Actions: drop, // undecodable
			Match: openflow.Match{Fields: openflow.FieldEthType}}, 0)
		tbl.Install(&openflow.FlowEntry{Priority: 1, Cookie: 13, Actions: drop, Match: dport(0)}, 0) // TCP port 0
	}
	mods := map[int]openflow.FlowMod{
		n / 4:     {Command: openflow.FlowAdd, Priority: 110, Cookie: 9, Match: dport(9999), Actions: out}, // punts become outputs
		n / 2:     {Command: openflow.FlowAdd, Priority: 120, Cookie: 11, Match: dport(25), Actions: out},  // shadows the drop rule
		3 * n / 4: {Command: openflow.FlowDeleteCookie, Cookie: 11},                                        // drop rule back in force
	}

	// Serial reference.
	sw := openflow.NewSwitch("ref", nil)
	sw.Chains = buildRuntime(t)
	installRules(t, sw.Table)
	hygiene(sw.Table)
	var ref ShardStats
	for i, data := range pkts {
		if fm, ok := mods[i]; ok {
			fm.Apply(sw.Table, 0)
		}
		switch d := sw.Process(data, 0); d.Verdict {
		case openflow.VerdictOutput:
			ref.Outputs++
		case openflow.VerdictDrop:
			ref.Drops++
		case openflow.VerdictTunnel:
			ref.Tunnels++
		case openflow.VerdictController:
			ref.PacketIns++
		}
	}

	// Sharded pipeline, with every hook counting deliveries.
	var mu sync.Mutex
	hookCounts := map[string]int{}
	hook := func(kind string) func() {
		return func() { mu.Lock(); hookCounts[kind]++; mu.Unlock() }
	}
	outHook, tunHook, ctlHook := hook("output"), hook("tunnel"), hook("controller")
	p := New(Config{
		Shards: 4,
		Chains: middlebox.Synchronized(buildRuntime(t)),
		OnOutput: func(port uint16, data []byte) {
			if port != 1 {
				t.Errorf("output port = %d, want 1", port)
			}
			outHook()
		},
		OnTunnel: func(name string, data []byte) {
			if name != "wg0" {
				t.Errorf("tunnel = %q, want wg0", name)
			}
			tunHook()
		},
		OnController: func(inPort uint16, data []byte) { ctlHook() },
	})
	installRules(t, p.Table())
	hygiene(p.Table())
	p.Start()
	for i, data := range pkts {
		if fm, ok := mods[i]; ok {
			p.Drain()
			fm.Apply(p.Table(), 0)
		}
		if !p.Submit(data, 0) {
			t.Fatal("unexpected backpressure drop")
		}
	}
	p.Drain()
	p.Stop()

	got := p.Stats().Total()
	if got.Processed != int64(n) {
		t.Fatalf("processed = %d, want %d", got.Processed, n)
	}
	if got.Outputs != ref.Outputs || got.Drops != ref.Drops ||
		got.Tunnels != ref.Tunnels || got.PacketIns != ref.PacketIns {
		t.Errorf("verdicts diverge: pipeline %+v vs serial out=%d drop=%d tun=%d punt=%d",
			got, ref.Outputs, ref.Drops, ref.Tunnels, ref.PacketIns)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(hookCounts["output"]) != got.Outputs || int64(hookCounts["tunnel"]) != got.Tunnels ||
		int64(hookCounts["controller"]) != got.PacketIns {
		t.Errorf("hook counts %v disagree with stats %+v", hookCounts, got)
	}
	// With 320 distinct flows and 1000 packets between cache-flushing
	// rule writes, the exact-match cache must carry most lookups.
	if got.CacheHits < int64(n/2) {
		t.Errorf("cache hits = %d, want >= %d", got.CacheHits, n/2)
	}
	// Billing parity: both tables counted the same matched traffic per
	// cookie — the resident rules, the mid-stream add, and the deleted
	// cookie (nothing left to bill on either side) — and the hygiene
	// rules, which bill the two malformed frames and nothing else.
	for _, cookie := range []uint64{7, 9, 11, 13} {
		refPkts, refBytes := sw.Table.StatsByCookie(cookie)
		gotPkts, gotBytes := p.Table().StatsByCookie(cookie)
		if refPkts != gotPkts || refBytes != gotBytes {
			t.Errorf("cookie %d stats: pipeline %d pkts/%d B vs serial %d pkts/%d B", cookie, gotPkts, gotBytes, refPkts, refBytes)
		}
		if (cookie == 11) != (refPkts == 0) {
			t.Errorf("cookie %d: serial billed %d packets", cookie, refPkts)
		}
	}
}

// TestBackpressure checks the bounded queue under overload: DropNewest
// rejects what does not fit (TestBlockPolicy covers Block).
func TestBackpressure(t *testing.T) {
	pkts := frames(t, 1) // one flow -> one shard
	p := New(Config{Shards: 2, QueueDepth: 8, Policy: DropNewest})
	installRules(t, p.Table())
	// Workers not started: the shard queue fills at 8.
	for i := 0; i < 8; i++ {
		if !p.Submit(pkts[0], 0) {
			t.Fatalf("early drop at %d", i)
		}
	}
	for i := 0; i < 12; i++ {
		if p.Submit(pkts[0], 0) {
			t.Fatalf("overflow Submit %d admitted", i)
		}
	}
	p.Start()
	p.Drain()
	p.Stop()
	st := p.Stats().Total()
	if st.Dropped != 12 {
		t.Errorf("dropped = %d, want 12", st.Dropped)
	}
	if st.Processed != 8 {
		t.Errorf("processed = %d, want 8", st.Processed)
	}
	if st.QueueDepth != 0 {
		t.Errorf("residual queue depth %d", st.QueueDepth)
	}
}

// TestBlockPolicy checks that Block never drops: slow consumer, fast
// producer, everything still processed.
func TestBlockPolicy(t *testing.T) {
	p := New(Config{Shards: 1, QueueDepth: 4, BatchSize: 2, Policy: Block})
	installRules(t, p.Table())
	p.Start()
	pkts := frames(t, 1)
	const n = 500
	for i := 0; i < n; i++ {
		if !p.Submit(pkts[0], 0) {
			t.Fatal("Block policy dropped a packet")
		}
	}
	p.Drain()
	p.Stop()
	if st := p.Stats().Total(); st.Processed != n || st.Dropped != 0 {
		t.Errorf("processed=%d dropped=%d, want %d/0", st.Processed, st.Dropped, n)
	}
}

// TestRuleUpdateMidStream installs a higher-priority rule while traffic
// flows and checks the snapshot swap takes effect (and invalidates the
// per-shard caches).
func TestRuleUpdateMidStream(t *testing.T) {
	p := New(Config{Shards: 2})
	installRules(t, p.Table())
	p.Start()
	defer p.Stop()
	pkts := frames(t, 5) // includes a dport-80 packet matching Output(1)
	web := pkts[0]

	for i := 0; i < 100; i++ {
		p.Submit(web, 0)
	}
	p.Drain()
	before := p.Stats().Total()
	if before.Outputs != 100 {
		t.Fatalf("outputs = %d, want 100", before.Outputs)
	}

	// Control plane flips port 80 to drop, at higher priority, via the
	// same FlowMod path deployserver uses.
	fm := openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 200,
		Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: 80},
		Actions:  []openflow.Action{openflow.Drop()},
		Cookie:   99,
	}
	fm.Apply(p.Table(), 0)

	for i := 0; i < 100; i++ {
		p.Submit(web, 0)
	}
	p.Drain()
	after := p.Stats().Total()
	if after.Outputs != before.Outputs {
		t.Errorf("outputs moved after drop rule: %d -> %d", before.Outputs, after.Outputs)
	}
	if got := after.Drops - before.Drops; got != 100 {
		t.Errorf("drops = %d, want 100", got)
	}
}

// TestExpiry checks idle-timeout eviction through the pipeline's expiry
// path, including final counters on the evicted entry.
func TestExpiry(t *testing.T) {
	now := int64(0) // ns, mutated between quiesced phases only
	p := New(Config{Now: func() time.Duration { return time.Duration(now) }})
	var expired []*openflow.FlowEntry
	p.cfg.OnExpired = func(e *openflow.FlowEntry) { expired = append(expired, e) }
	p.Table().Install(&openflow.FlowEntry{
		Priority:    10,
		Match:       openflow.Match{}, // match-any
		Actions:     []openflow.Action{openflow.Output(1)},
		Cookie:      5,
		IdleTimeout: time.Second,
	}, 0)
	p.Start()
	pkts := frames(t, 1)
	for i := 0; i < 10; i++ {
		p.Submit(pkts[0], 0)
	}
	p.Drain()
	now = int64(2 * time.Second)
	p.ExpireNow()
	p.Stop()
	if len(expired) != 1 {
		t.Fatalf("expired %d entries, want 1", len(expired))
	}
	if expired[0].Packets != 10 {
		t.Errorf("expired entry packets = %d, want 10", expired[0].Packets)
	}
	if p.Table().Len() != 0 {
		t.Errorf("table len = %d after expiry", p.Table().Len())
	}
}

// TestSharedRuntimeFourShards runs chain traffic from four workers into
// the one Runtime they share and checks every packet traversed the chain
// exactly once: passBox counts in a plain field, so under -race this also
// holds the runtime to serializing one owner's box across shards.
func TestSharedRuntimeFourShards(t *testing.T) {
	rt := buildRuntime(t)
	box := chainBox(t, rt)
	p := New(Config{Shards: 4, Chains: rt})
	p.Table().Install(&openflow.FlowEntry{
		Priority: 10,
		Match:    openflow.Match{},
		Actions:  []openflow.Action{openflow.ToMiddlebox("u/c"), openflow.Output(1)},
	}, 0)
	p.Start()
	const n = 400
	for _, d := range frames(t, n) {
		p.Submit(d, 0)
	}
	p.Drain()
	p.Stop()
	st := p.Stats()
	busy := 0
	for _, sh := range st.Shards {
		if sh.Processed > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("%d shards saw traffic; the test needs the chain reached from several workers", busy)
	}
	if inst := rt.InstancesOf("u")[0]; box.n != n || inst.Packets != n {
		t.Errorf("chain traversals: box saw %d, runtime billed %d, want %d", box.n, inst.Packets, n)
	}
	if tot := st.Total(); tot.Outputs != n || tot.ChainErrs != 0 {
		t.Errorf("outputs = %d chain errors = %d, want %d and 0", tot.Outputs, tot.ChainErrs, n)
	}
}

// chainBox digs the passBox instance back out of a runtime built by
// buildRuntime.
func chainBox(t testing.TB, rt *middlebox.Runtime) *passBox {
	t.Helper()
	insts := rt.InstancesOf("u")
	if len(insts) != 1 {
		t.Fatalf("expected 1 instance, got %d", len(insts))
	}
	b, ok := insts[0].Box.(*passBox)
	if !ok {
		t.Fatalf("unexpected box type %T", insts[0].Box)
	}
	return b
}

// TestTraceWorkload pushes a generated web-trace workload through the
// pipeline, tying the dataplane to the experiment traffic generators.
func TestTraceWorkload(t *testing.T) {
	p := New(Config{Shards: 4})
	installRules(t, p.Table())
	p.Start()
	defer p.Stop()
	g := trace.NewWebGen(3)
	dev := packet.MustParseIPv4("10.0.0.5")
	web := packet.MustParseIPv4("93.184.216.34")
	n := 0
	for i := 0; i < 20; i++ {
		page := g.Page("site.example")
		for j, o := range page.Objects {
			data, err := trace.HTTPRequestPacket(dev, web, uint16(30000+i*64+j), o.Host, o.Path, "")
			if err != nil {
				t.Fatal(err)
			}
			p.Submit(data, 0)
			n++
		}
	}
	p.Drain()
	st := p.Stats().Total()
	if st.Processed != int64(n) {
		t.Fatalf("processed %d of %d", st.Processed, n)
	}
	if st.Outputs != int64(n) { // all HTTP requests hit the dport-80 rule
		t.Errorf("outputs = %d, want %d", st.Outputs, n)
	}
	if d := p.LatencyDist(); d.N() == 0 && n >= latencySampleEvery {
		t.Error("no latency samples recorded")
	}
}

// TestShardAffinity checks both directions of a flow land on one shard,
// so bidirectional state stays worker-private.
func TestShardAffinity(t *testing.T) {
	fwd, ok1 := flowKeyOf(mustFrame(t, "10.0.0.5", "93.184.216.34", 40000, 80), 0)
	rev, ok2 := flowKeyOf(mustFrame(t, "93.184.216.34", "10.0.0.5", 80, 40000), 0)
	if !ok1 || !ok2 {
		t.Fatal("flow key extraction failed")
	}
	if rev.Flow != fwd.Flow.Reverse() {
		t.Fatalf("raw parse got %v, want reverse of %v", rev.Flow, fwd.Flow)
	}
	for _, shards := range []uint64{1, 2, 4, 8, 16} {
		if fwd.Flow.FastHash()%shards != rev.Flow.FastHash()%shards {
			t.Errorf("flow and reverse on different shards at %d shards", shards)
		}
	}
}

func mustFrame(t testing.TB, src, dst string, sport, dport uint16) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4(src), Dst: packet.MustParseIPv4(dst), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("x"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTunnelFailoverUnderWorkers: with a tunnel table attached, workers
// route tunnel-action packets health-aware. When the primary endpoint
// goes down mid-stream, every flow re-pins to the standby exactly once,
// concurrently, and the counters surface in Stats().Tunnel.
func TestTunnelFailoverUnderWorkers(t *testing.T) {
	tbl := tunnel.NewTable(packet.MustParseIPv4("10.0.0.5"))
	tbl.Health = tunnel.HealthConfig{Window: 8, DownThreshold: 2}
	tbl.Add(&tunnel.Endpoint{Name: "wg0", Addr: packet.MustParseIPv4("198.51.100.50"), Trusted: true})
	tbl.Add(&tunnel.Endpoint{Name: "backup", Addr: packet.MustParseIPv4("203.0.113.80"), Trusted: true})

	var mu sync.Mutex
	perName := map[string]int{}
	p := New(Config{
		Shards: 4, Policy: Block, Tunnels: tbl,
		OnTunnel: func(name string, data []byte) {
			mu.Lock()
			perName[name]++
			mu.Unlock()
		},
	})
	installRules(t, p.Table())
	p.Start()
	defer p.Stop()

	const flows, rounds = 32, 10
	mk := func(sport uint16) []byte { return mustFrame(t, "10.0.0.5", "93.184.216.34", sport, 443) }

	for i := 0; i < flows; i++ {
		p.Submit(mk(uint16(41000+i)), 0)
	}
	p.Drain()

	// The primary dies; every subsequent packet must reach the standby.
	tbl.RecordProbe("wg0", false, 0, 1)
	tbl.RecordProbe("wg0", false, 0, 2)
	for r := 0; r < rounds; r++ {
		for i := 0; i < flows; i++ {
			p.Submit(mk(uint16(41000+i)), 0)
		}
	}
	p.Drain()

	mu.Lock()
	defer mu.Unlock()
	if perName["wg0"] != flows {
		t.Fatalf("primary carried %d packets, want %d", perName["wg0"], flows)
	}
	if perName["backup"] != flows*rounds {
		t.Fatalf("standby carried %d packets, want %d", perName["backup"], flows*rounds)
	}
	st := p.Stats()
	if st.Tunnel.Failovers != flows {
		t.Fatalf("failovers %d, want %d (one per flow)", st.Tunnel.Failovers, flows)
	}
	if tbl.PinnedTo("backup") != flows {
		t.Fatalf("pinned to backup: %d", tbl.PinnedTo("backup"))
	}
}
