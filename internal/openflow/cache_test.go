package openflow

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pvn/internal/packet"
)

// probe is one packet as a dataplane worker sees it: the cache key
// Submit peeked (meaningless when !cacheable), the match fields a
// header decode yields, and the wire size.
type probe struct {
	key       CacheKey
	cacheable bool
	fields    PacketFields
	size      int
}

// tcpProbe is a cacheable TCP packet whose key and fields agree.
func tcpProbe(src, dst packet.IPv4Address, sport, dport, inPort uint16, size int) probe {
	return probe{
		key: CacheKey{InPort: inPort, Flow: packet.Flow{
			Proto: packet.IPProtoTCP,
			Src:   packet.Endpoint{Addr: src, Port: sport},
			Dst:   packet.Endpoint{Addr: dst, Port: dport},
		}},
		cacheable: true,
		fields: PacketFields{InPort: inPort, EthType: packet.EtherTypeIPv4, SrcIP: src, DstIP: dst,
			Proto: packet.IPProtoTCP, SrcPort: sport, DstPort: dport},
		size: size,
	}
}

// fastLookup is Switch.Resolve's protocol: the cache alone first, the
// scan only on a miss.
func fastLookup(t *FlowTable, c *flowCache, p probe) []Action {
	if actions, e := t.lookupCached(c, p.key, p.cacheable, p.size); e != nil {
		return actions
	}
	actions, _ := t.lookupScan(c, p.key, p.cacheable, p.fields, p.size)
	return actions
}

// ruleID reads back the id twinRule stored in a rule's only action;
// table-miss actions read as -1.
func ruleID(actions []Action) int {
	if len(actions) == 1 && actions[0].Type == ActionTypeOutput {
		return int(actions[0].Port)
	}
	return -1
}

// sameEntries compares what two tables hold, or twin rules both removed:
// same rules in the same order with the same counters.
func sameEntries(t *testing.T, what string, ref, fast []*FlowEntry) {
	t.Helper()
	if len(ref) != len(fast) {
		t.Fatalf("%s: reference has %d entries, cached table %d", what, len(ref), len(fast))
	}
	for i := range ref {
		r, f := ref[i], fast[i]
		if ruleID(r.Actions) != ruleID(f.Actions) || r.Packets != f.Packets || r.Bytes != f.Bytes {
			t.Fatalf("%s: entry %d: reference rule %d pkts=%d bytes=%d, cached table rule %d pkts=%d bytes=%d",
				what, i, ruleID(r.Actions), r.Packets, r.Bytes, ruleID(f.Actions), f.Packets, f.Bytes)
		}
	}
}

// TestFlowCacheBounded holds the flow cache to its contract while fresh
// flows stream past a few dozen flows that keep coming back: the young
// generation never holds more than 2*flowCacheGen flows nor the cache
// more than 4*flowCacheGen, a flow inserted or hit within the last
// flowCacheGen new flows still hits, every flow it drops is counted as
// an eviction, it never empties at once (only a rule write does that),
// and the answers and per-rule counters stay those of the uncached
// Lookup.
func TestFlowCacheBounded(t *testing.T) {
	ref, fast := &scanTable{}, NewFlowTable()
	for _, install := range []func(*FlowEntry, time.Duration){ref.Install, fast.Install} {
		install(&FlowEntry{Priority: 20, Match: Match{Fields: FieldDstPort, DstPort: 443}, Actions: []Action{Output(1)}}, 0)
		install(&FlowEntry{Priority: 10, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(2)}}, 0)
	}
	c := newFlowCache()
	dst := packet.MustParseIPv4("93.184.216.34")
	flow := func(i int) probe {
		src := packet.IPv4Address{10, byte(i >> 16), byte(i >> 8), 1}
		return tcpProbe(src, dst, uint16(i), uint16(80+363*(i%2)), 0, 40+i%7)
	}
	// misses counts new flows: every miss is memoized. touched is each
	// flow's misses count at its last insert or hit.
	var misses, revived, evicted int
	touched := make(map[int]int)
	check := func(i int) {
		p := flow(i)
		_, inOld := c.old[p.key]
		want, _ := ref.Lookup(p.fields, p.size)
		actions, e := fast.lookupCached(c, p.key, true, p.size)
		switch {
		case e == nil:
			if last, ok := touched[i]; ok {
				if misses-last <= flowCacheGen {
					t.Fatalf("flow %d missed %d new flows after its last insert or hit; a generation is %d", i, misses-last, flowCacheGen)
				}
				evicted++
			}
			actions, _ = fast.lookupScan(c, p.key, true, p.fields, p.size)
			misses++
		case inOld:
			revived++
		}
		touched[i] = misses
		if ruleID(actions) != ruleID(want) {
			t.Fatalf("flow %d: cached path chose rule %d, Lookup rule %d", i, ruleID(actions), ruleID(want))
		}
		held := len(c.m) + len(c.old)
		if len(c.m) > 2*flowCacheGen || held > 4*flowCacheGen {
			t.Fatalf("flow %d: cache holds %d flows, %d young; bounds are %d and %d", i, held, len(c.m), 4*flowCacheGen, 2*flowCacheGen)
		}
		if ev := int(c.evictions.Load()); misses != held+ev {
			t.Fatalf("flow %d: %d flows inserted, %d held and %d evictions counted", i, misses, held, ev)
		}
		if misses > flowCacheGen && held < flowCacheGen {
			t.Fatalf("flow %d: cache emptied to %d flows with no rule write", i, held)
		}
	}
	// Every other packet is a slot for one of 64 residents, which takes
	// it once in 1+r*flowCacheGen/2048 rounds of 64 slots, and a round
	// brings about 126 new flows: resident r comes back after one round
	// to almost four generations' worth, so some are hit in the young
	// generation, some in the old one, and the slowest are evicted in
	// between. Every other packet is a fresh flow.
	const residents, fresh = 64, 8 * flowCacheGen
	next := residents
	for n := 0; next < residents+fresh; n++ {
		slot := n / 2
		if r := slot % residents; n%2 == 0 && (slot/residents)%(1+r*flowCacheGen/2048) == 0 {
			check(r)
			continue
		}
		check(next)
		next++
	}
	if revived == 0 || evicted == 0 {
		t.Fatalf("%d residents hit in the old generation, %d evicted; the schedule should produce both", revived, evicted)
	}
	sameEntries(t, "after rotations", ref.Entries(), fast.Entries())

	// A write pinned to one address makes the next lookup drop that
	// address's flows from both generations, and only those: here the
	// residents' source, which the first 256 fresh flows share.
	src := flow(0).fields.SrcIP
	var held []CacheKey
	inOld := 0
	for gen, m := range []map[CacheKey]*FlowEntry{c.m, c.old} {
		for k := range m {
			held = append(held, k)
			if gen == 1 && k.Flow.Src.Addr == src {
				inOld++
			}
		}
	}
	if inOld == 0 {
		t.Fatalf("no flow from %v in the old generation; the schedule should leave some", src)
	}
	for _, install := range []func(*FlowEntry, time.Duration){ref.Install, fast.Install} {
		install(&FlowEntry{Priority: 25, Match: Match{Fields: FieldSrcIP, SrcIP: src, SrcBits: 32}, Actions: []Action{Output(4)}}, 0)
	}
	for i := 0; i < residents; i++ {
		p := flow(i)
		want, _ := ref.Lookup(p.fields, p.size)
		if got := fastLookup(fast, c, p); ruleID(got) != ruleID(want) || ruleID(got) != 4 {
			t.Fatalf("flow %d after a write pinned to its source: cached path chose rule %d, Lookup rule %d", i, ruleID(got), ruleID(want))
		}
		if i > 0 {
			continue
		}
		for _, k := range held {
			if fromSrc := k.Flow.Src.Addr == src; c.holds(k) == fromSrc && k != p.key {
				t.Fatalf("flow %+v: held=%t after a write pinned to %v, want %t", k.Flow, c.holds(k), src, !fromSrc)
			}
		}
	}

	// An unpinned rule write empties both generations: the next lookup
	// answers from the new rule set and leaves one flow cached.
	for _, install := range []func(*FlowEntry, time.Duration){ref.Install, fast.Install} {
		install(&FlowEntry{Priority: 30, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(3)}}, 0)
	}
	for i := 0; i < residents; i++ {
		p := flow(i)
		want, _ := ref.Lookup(p.fields, p.size)
		if got := fastLookup(fast, c, p); ruleID(got) != ruleID(want) || ruleID(got) != 3 {
			t.Fatalf("flow %d after a rule write: cached path chose rule %d, Lookup rule %d", i, ruleID(got), ruleID(want))
		}
		if held := len(c.m) + len(c.old); held != i+1 {
			t.Fatalf("after a rule write and %d flows: cache holds %d", i+1, held)
		}
	}
	sameEntries(t, "after the rule write", ref.Entries(), fast.Entries())
}

// TestFlowCacheReuseDistance pins what the cache answers at each reuse
// distance, counted in new flows: every flow's second packet comes
// exactly d new flows after its first, as when two producers that each
// carry half of every flow drift d packets' worth of new flows apart.
// Within a generation every second packet hits — a flow moved up from
// the old generation does not shorten it — and beyond it the hit rate
// falls exactly as the two generations dictate: a flow first seen at
// position p of its generation is still held up to 2*flowCacheGen-p
// new flows later, so at 1.5 generations the first half of each
// generation's flows hit and at two none do. A missed second packet is not memoized again (it is the
// flow's last), so the generations stay aligned with the flow numbers.
func TestFlowCacheReuseDistance(t *testing.T) {
	table := NewFlowTable()
	table.Install(&FlowEntry{Priority: 10, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(1)}}, 0)
	dst := packet.MustParseIPv4("93.184.216.34")
	flow := func(i int) probe {
		return tcpProbe(packet.IPv4Address{10, byte(i >> 16), byte(i >> 8), byte(i)}, dst, 1024, 443, 0, 40)
	}
	const flows = 8 * flowCacheGen
	for _, tc := range []struct {
		d, wantHits int
	}{
		{flowCacheGen - 1, flows - (flowCacheGen - 1)},
		{flowCacheGen + flowCacheGen/2, 7 * flowCacheGen / 2}, // the first half of each generation, over 6.5 of them
		{2 * flowCacheGen, 0},
	} {
		c := newFlowCache()
		hits := 0
		for i := 0; i < flows; i++ {
			p := flow(i)
			if _, e := table.lookupCached(c, p.key, true, p.size); e != nil {
				t.Fatalf("d=%d: flow %d hit before its first packet", tc.d, i)
			}
			table.lookupScan(c, p.key, true, p.fields, p.size)
			if i >= tc.d {
				q := flow(i - tc.d)
				if _, e := table.lookupCached(c, q.key, true, q.size); e != nil {
					hits++
				}
			}
		}
		if hits != tc.wantHits {
			t.Errorf("reuse distance %d new flows (generation %d): %d of %d second packets hit, want %d",
				tc.d, flowCacheGen, hits, flows-tc.d, tc.wantHits)
		}
		if held := len(c.m) + len(c.old); held > 4*flowCacheGen {
			t.Errorf("d=%d: cache holds %d flows, bound is %d", tc.d, held, 4*flowCacheGen)
		}
	}
}

// TestFlowCacheRevivalsStayBounded: flows that all keep coming back
// within a generation would keep every flow a sender ever opened, so
// the young generation also ends when it holds 2*flowCacheGen flows.
// Here every flow returns every half generation, forever.
func TestFlowCacheRevivalsStayBounded(t *testing.T) {
	table := NewFlowTable()
	table.Install(&FlowEntry{Priority: 10, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(1)}}, 0)
	dst := packet.MustParseIPv4("93.184.216.34")
	flow := func(i int) probe {
		return tcpProbe(packet.IPv4Address{10, byte(i >> 16), byte(i >> 8), byte(i)}, dst, 1024, 443, 0, 40)
	}
	c := newFlowCache()
	const half = flowCacheGen / 2
	for i := 0; i < 6*flowCacheGen; i++ {
		for j := i; j >= 0; j -= half {
			fastLookup(table, c, flow(j))
		}
		if held := len(c.m) + len(c.old); len(c.m) > 2*flowCacheGen || held > 4*flowCacheGen {
			t.Fatalf("after %d flows: cache holds %d flows, %d young; bounds are %d and %d", i+1, held, len(c.m), 4*flowCacheGen, 2*flowCacheGen)
		}
	}
}

// TestCachedLookupMatchesLookup is the differential oracle for the
// dataplane's rule fast path: whatever rule writes land between packets,
// lookupCached followed on a miss by lookupScan must pick the rule the
// reference scan picks on a twin rule set and leave every entry's
// counters the same — including entries removed mid-run and packets
// that cannot be cached, which share one meaningless key. Seed 9 adds
// more distinct flows than both caches' generations hold, and
// installs, removes by cookie and removes drawn rules in turn, once per
// rotateEvery steps, so every cache rotates between the writes.
//
// The other seeds also install and remove rules pinned to bystander
// addresses no flow uses, and rules pinned to no address at all. When a
// cache catches up over bystander writes alone it must still hold every
// flow it held; after an unpinned write it must hold none.
func TestCachedLookupMatchesLookup(t *testing.T) {
	const rotateSeed, rotateEvery = 9, 10 * flowCacheGen
	removed, keptOver, flushedBy := 0, 0, 0
	for seed := int64(1); seed <= rotateSeed; seed++ {
		r := rand.New(rand.NewSource(seed))
		steps, churn := 6000, 0
		if seed == rotateSeed {
			steps, churn = 6*rotateEvery, 6*flowCacheGen
		}
		ref, fast := &scanTable{}, NewFlowTable()
		var pairs twins
		// Two caches, as two shards would hold: each sees generation
		// bumps only when its own next packet arrives.
		caches := [2]*flowCache{newFlowCache(), newFlowCache()}

		addrs := []packet.IPv4Address{{10, 0, 0, 5}, {10, 0, 1, 9}, {10, 1, 0, 7}, {93, 184, 216, 34}}
		ports := []uint16{80, 443, 8080, 40000, 40001}
		var flows []probe
		for i := 0; i < 48; i++ {
			flows = append(flows, tcpProbe(addrs[r.Intn(4)], addrs[r.Intn(4)],
				ports[r.Intn(5)], ports[r.Intn(5)], uint16(r.Intn(2)), 40+r.Intn(1400)))
		}
		// Churn flows: the rule set's addresses and ports but source
		// ports of their own, each sent a few times over the run.
		for i := 0; i < churn; i++ {
			flows = append(flows, tcpProbe(addrs[r.Intn(4)], addrs[r.Intn(4)],
				uint16(1024+i), ports[r.Intn(5)], uint16(r.Intn(2)), 40+r.Intn(1400)))
		}
		// Non-IPv4 frames: never cacheable, all under the zero key of
		// their port, told apart only by their fields.
		for _, eth := range []uint16{0x0806, 0x86dd} {
			flows = append(flows, probe{key: CacheKey{InPort: 0}, fields: PacketFields{EthType: eth}, size: 60})
		}

		// kinds marks the generations a bystander or an unpinned write
		// made, for checkCatchUp.
		kinds := map[uint64]string{}
		wrote := func(from uint64, kind string) {
			if g := fast.Generation(); g != from {
				kinds[g] = kind
			}
		}
		bystanders := []packet.IPv4Address{{10, 200, 0, 1}, {10, 200, 0, 2}, {198, 51, 100, 7}}
		var strangers twins

		nextID := 0
		// twin installs one rule on both tables and records the write.
		twin := func(into *twins, e *FlowEntry, kind string) {
			nextID++
			copied := *e
			from := fast.Generation()
			ref.Install(e, 0)
			fast.Install(&copied, 0)
			into.add(e, &copied)
			wrote(from, kind)
		}
		twinRule := func() {
			m := Match{Fields: FieldSet(r.Intn(1 << 7)), InPort: uint16(r.Intn(2)),
				EthType: []uint16{packet.EtherTypeIPv4, 0x0806}[r.Intn(2)],
				SrcIP:   addrs[r.Intn(4)], SrcBits: uint8(8 * r.Intn(5)),
				DstIP: addrs[r.Intn(4)], DstBits: uint8(8 * r.Intn(5)),
				Proto: packet.IPProtoTCP, SrcPort: ports[r.Intn(5)], DstPort: ports[r.Intn(5)]}
			if r.Intn(3) == 0 {
				m.Fields &= FieldEthType | FieldInPort // broad rules, so most packets match something
			}
			twin(&pairs, &FlowEntry{Priority: r.Intn(4), Match: m, Cookie: uint64(nextID % 5),
				Actions: []Action{Output(uint16(nextID))}}, "")
		}

		for i := 0; i < 12; i++ {
			twinRule()
		}
		for step := 0; step < steps; step++ {
			op := r.Intn(100)
			if churn > 0 {
				op = 10 // a lookup, but for one write per rotateEvery steps
				if step%rotateEvery == rotateEvery-1 {
					op = []int{0, 2, 3}[step/rotateEvery%3]
				}
			}
			switch {
			case op < 2:
				twinRule()
			case op < 3:
				cookie := uint64(r.Intn(5))
				rp, rb := ref.StatsByCookie(cookie)
				fp, fb := fast.StatsByCookie(cookie)
				if rp != fp || rb != fb {
					t.Fatalf("seed %d step %d: cookie %d billed %d/%d on the reference, %d/%d cached", seed, step, cookie, rp, rb, fp, fb)
				}
				if a, b := ref.RemoveByCookie(cookie), fast.RemoveByCookie(cookie); a != b {
					t.Fatalf("seed %d step %d: RemoveByCookie(%d) removed %d vs %d", seed, step, cookie, a, b)
				}
			case op < 6:
				removed += pairs.remove(t, fmt.Sprintf("seed %d step %d", seed, step), r, 1+r.Intn(3), ref, fast)
			case op < 8:
				a := bystanders[r.Intn(len(bystanders))]
				m := Match{Fields: FieldSrcIP | FieldProto, SrcIP: a, SrcBits: 32, Proto: packet.IPProtoTCP}
				if r.Intn(2) == 0 {
					m = Match{Fields: FieldDstIP | FieldProto, DstIP: a, Proto: packet.IPProtoTCP}
				}
				twin(&strangers, &FlowEntry{Priority: r.Intn(4), Match: m, Cookie: 5, Actions: []Action{Output(uint16(nextID))}}, "bystander")
			case op < 9:
				if len(strangers.refs) > 0 {
					from := fast.Generation()
					strangers.remove(t, fmt.Sprintf("seed %d step %d", seed, step), r, 1+r.Intn(2), ref, fast)
					wrote(from, "bystander")
				}
			case op < 10:
				m := Match{Fields: FieldProto | FieldDstPort, Proto: packet.IPProtoTCP, DstPort: ports[r.Intn(5)]}
				twin(&pairs, &FlowEntry{Priority: r.Intn(4), Match: m, Cookie: uint64(nextID % 5), Actions: []Action{Output(uint16(nextID))}}, "unpinned")
			default:
				p := flows[r.Intn(len(flows))]
				if churn > 0 && r.Intn(4) == 0 {
					p = flows[r.Intn(48)]
				}
				want, _ := ref.Lookup(p.fields, p.size)
				c := caches[p.key.Flow.FastHash()%2]
				if s := fast.snap.Load(); c.gen != s.gen {
					b, u := checkCatchUp(t, fmt.Sprintf("seed %d step %d", seed, step), c, s, kinds)
					keptOver += b2i(b)
					flushedBy += b2i(u)
				}
				if got := fastLookup(fast, c, p); ruleID(got) != ruleID(want) || len(got) != len(want) {
					t.Fatalf("seed %d step %d: cached path chose rule %d, Lookup rule %d (fields %+v)", seed, step, ruleID(got), ruleID(want), p.fields)
				}
			}
		}
		sameEntries(t, "final table", ref.Entries(), fast.Entries())
		if len(caches[0].m)+len(caches[1].m) == 0 {
			t.Errorf("seed %d: nothing was ever cached; the test did not reach the fast path", seed)
		}
		if seed == rotateSeed && (caches[0].evictions.Load() == 0 || caches[1].evictions.Load() == 0) {
			t.Errorf("seed %d: evictions %d and %d; every cache should have rotated", seed, caches[0].evictions.Load(), caches[1].evictions.Load())
		}
	}
	if removed < 100 {
		t.Errorf("%d rules removed by drawn removals over all seeds; the mix no longer reaches them", removed)
	}
	if keptOver < 500 || flushedBy < 200 {
		t.Errorf("%d catch-ups over bystander writes alone, %d after an unpinned write; the mix no longer reaches them", keptOver, flushedBy)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkCatchUp brings c up to s, as its next lookup would, and holds
// the result to what the writes it missed allow: every flow it keeps,
// in either generation, answers the rule s chooses for it; over writes
// pinned to bystander addresses alone, within the write log's reach,
// every flow stays; after an unpinned write, none does. It reports
// which of the last two it checked. The flows are tcpProbes, so a key
// gives back its packet's fields.
func checkCatchUp(t *testing.T, what string, c *flowCache, s *snapshot, kinds map[uint64]string) (bystanders, unpinned bool) {
	t.Helper()
	var held []CacheKey
	for _, m := range []map[CacheKey]*FlowEntry{c.m, c.old} {
		for k := range m {
			held = append(held, k)
		}
	}
	bystanders = s.gen-c.gen <= writeLogMax && len(held) > 0
	for g := c.gen + 1; g <= s.gen; g++ {
		bystanders = bystanders && kinds[g] == "bystander"
		unpinned = unpinned || kinds[g] == "unpinned"
	}
	c.catchUp(s)
	for _, m := range []map[CacheKey]*FlowEntry{c.m, c.old} {
		for k, e := range m {
			f := k.Flow
			fields := PacketFields{InPort: k.InPort, EthType: packet.EtherTypeIPv4, SrcIP: f.Src.Addr, DstIP: f.Dst.Addr,
				Proto: f.Proto, SrcPort: f.Src.Port, DstPort: f.Dst.Port}
			if want := s.match(fields); want != e {
				t.Fatalf("%s: flow %+v kept rule %d, the snapshot chooses another", what, f, ruleID(e.Actions))
			}
		}
	}
	if n := len(c.m) + len(c.old); unpinned && n != 0 {
		t.Fatalf("%s: %d flows outlived an unpinned write", what, n)
	}
	if bystanders {
		for _, k := range held {
			if !c.holds(k) {
				t.Fatalf("%s: flow %+v dropped by writes pinned to bystander addresses", what, k.Flow)
			}
		}
	}
	return bystanders, unpinned
}

// holds reports whether the cache would answer key without a scan.
func (c *flowCache) holds(key CacheKey) bool {
	_, young := c.m[key]
	_, old := c.old[key]
	return young || old
}

// TestPortChurnKeepsNeighbourFlowsCached: a neighbour minting a fresh
// 5-tuple for every packet against its own catch-all rule displaces
// only flows idle for a whole generation, so a resident whose flows
// keep sending never loses a cached decision to it. The resident's 32
// flows send one packet in every 64, so each comes back every 2048
// packets; the neighbour sends the rest, a million flows of one packet.
func TestPortChurnKeepsNeighbourFlowsCached(t *testing.T) {
	resident, neighbour := packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("10.0.0.66")
	sw := NewSwitch("s1", nil)
	sw.Table.InstallAll([]*FlowEntry{
		{Priority: 10, Match: Match{Fields: FieldSrcIP, SrcIP: resident, SrcBits: 32}, Actions: []Action{Output(1)}},
		{Priority: 10, Match: Match{Fields: FieldSrcIP, SrcIP: neighbour, SrcBits: 32}, Actions: []Action{Output(2)}},
	}, 0)
	const flows, every, churn = 32, 64, 1_000_000
	residentFrames := make([][]byte, flows)
	for i := range residentFrames {
		residentFrames[i] = tcpPacket(t, resident, webIP, uint16(40000+i), 443, "x")
	}
	// One neighbour frame, re-addressed per packet: a fresh destination
	// address and source port, with the IPv4 header checksum (the only
	// one the decoder checks) kept valid.
	frame := tcpPacket(t, neighbour, webIP, 0, 80, "x")
	ihl := int(frame[0]&0x0f) * 4
	var residentMisses, churned int
	for n := 0; churned < churn; n++ {
		port, data := uint16(2), frame
		if n%every == 0 {
			port, data = 1, residentFrames[n/every%flows]
			if key, _ := KeyOf(data, 0); n >= every*flows && !sw.cache.holds(key) {
				residentMisses++
			}
		} else {
			copy(frame[16:20], []byte{198, 18, byte(churned >> 16), 1})
			binary.BigEndian.PutUint16(frame[ihl:], uint16(churned))
			binary.BigEndian.PutUint16(frame[10:12], 0)
			binary.BigEndian.PutUint16(frame[10:12], packet.Checksum(frame[:ihl]))
			churned++
		}
		if d := sw.Process(data, 0); d.Verdict != VerdictOutput || d.Port != port {
			t.Fatalf("packet %d: verdict %v port %d, want output on %d", n, d.Verdict, d.Port, port)
		}
	}
	if residentMisses != 0 {
		t.Errorf("%d of the resident's packets after warm-up missed the flow cache, want 0", residentMisses)
	}
	if ev, floor := sw.CacheEvictions(), int64(churn-2*flowCacheGen); ev < floor {
		t.Errorf("%d evictions counted, want at least %d: every churned flow but the cache's two generations", ev, floor)
	}
}
