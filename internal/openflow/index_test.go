package openflow

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pvn/internal/packet"
)

// checkSnapshot verifies what lookups take for granted about a
// snapshot: every rule is filed exactly once and in the place pinOf
// names, each place is in its own order, leaves are neither empty nor
// oversized, and the rule counter agrees with what is filed.
func checkSnapshot(t *testing.T, what string, s *snapshot) {
	t.Helper()
	// Match order, restated here so the check does not lean on the code
	// it checks.
	inOrder := func(a, b slot) bool {
		return a.e.Priority > b.e.Priority || a.e.Priority == b.e.Priority && a.seq < b.seq
	}
	seqOf := map[*FlowEntry]uint64{}
	file := func(where string, want pin, o slot) {
		if _, dup := seqOf[o.e]; dup {
			t.Fatalf("%s: %s files a rule twice", what, where)
		}
		if got := pinOf(&o.e.Match); got != want {
			t.Fatalf("%s: %s holds a rule pinOf files as %d (%s)", what, where, got, o.e.Match.String())
		}
		seqOf[o.e] = o.seq
	}
	for _, ix := range []*addrIndex{&s.bySrc, &s.byDst} {
		where, want := "bySrc", pinSrc
		if ix.dst {
			where, want = "byDst", pinDst
		}
		var prev slot
		for _, leaf := range ix.leaves {
			if len(leaf) == 0 || len(leaf) > leafMax {
				t.Fatalf("%s: %s has a leaf of %d slots", what, where, len(leaf))
			}
			for _, o := range leaf {
				file(where, want, o)
				if prev.e != nil {
					pk, ok := ix.key(prev.e), ix.key(o.e)
					if pk > ok || pk == ok && !inOrder(prev, o) {
						t.Fatalf("%s: %s out of order at %s", what, where, o.e.Match.String())
					}
				}
				prev = o
			}
		}
	}
	for i, o := range s.open {
		file("open", pinNone, o)
		if i > 0 && !inOrder(s.open[i-1], o) {
			t.Fatalf("%s: open out of order at %d", what, i)
		}
	}
	if len(seqOf) != s.rules {
		t.Fatalf("%s: %d rules filed, the counter says %d", what, len(seqOf), s.rules)
	}
}

// ruleGen draws the seeded rule sets the index differentials run on,
// built to sit on every seam of the index: subscriber addresses several
// to a /24, so prefix rules cover addresses other than their own; the
// unset address non-IPv4 frames carry; and hot, which gets more rules
// than a leaf holds. Rules come pinned by source, by destination, on
// both sides and on neither, and now and then one matches everything
// under anyCookie; each rule's Output port is its ID.
type ruleGen struct {
	r              *rand.Rand
	addrs, outside []packet.IPv4Address
	hot            packet.IPv4Address
	ports          []uint16
	nextID         int
}

// anyCookie tags ruleGen's match-everything rules, apart from the seven
// cookies the others share, so a differential can retire them alone.
const anyCookie = 7

func newRuleGen(seed int64) *ruleGen {
	g := &ruleGen{
		r:       rand.New(rand.NewSource(seed)),
		outside: []packet.IPv4Address{{93, 184, 216, 34}, {10, 0, 0, 200}, {172, 16, 0, 1}},
		ports:   []uint16{80, 443, 53, 40000},
	}
	for i := 0; i < 12; i++ {
		g.addrs = append(g.addrs, packet.IPv4Address{10, byte(i % 2), byte(i % 3), byte(1 + i)})
	}
	g.addrs = append(g.addrs, packet.IPv4Address{})
	g.hot = g.addrs[7]
	return g
}

func (g *ruleGen) pick(from []packet.IPv4Address) packet.IPv4Address {
	return from[g.r.Intn(len(from))]
}

func (g *ruleGen) rule() FlowEntry {
	r, pick, addrs, hot, ports := g.r, g.pick, g.addrs, g.hot, g.ports
	var m Match
	exact := []uint8{0, 32}[r.Intn(2)] // 0 is the /32 compatibility case
	short := uint8(8 * (1 + r.Intn(3)))
	switch shape := r.Intn(10); shape {
	case 0, 1: // compiled outbound: src/32
		m = Match{Fields: FieldSrcIP, SrcIP: pick(addrs), SrcBits: exact}
	case 2, 3: // compiled inbound: dst/32
		m = Match{Fields: FieldDstIP, DstIP: pick(addrs), DstBits: exact}
	case 4: // pinned on both sides
		m = Match{Fields: FieldSrcIP | FieldDstIP, SrcIP: pick(addrs), SrcBits: exact, DstIP: pick(addrs), DstBits: exact}
	case 5: // exact on one side, prefix on the other (`dst=` policies)
		m = Match{Fields: FieldSrcIP | FieldDstIP, SrcIP: pick(addrs), SrcBits: exact, DstIP: pick(addrs), DstBits: short}
		if r.Intn(2) == 0 {
			m.SrcBits, m.DstBits = short, exact
		}
	case 6: // prefix only
		m = Match{Fields: FieldSrcIP, SrcIP: pick(addrs), SrcBits: short}
		if r.Intn(2) == 0 {
			m = Match{Fields: FieldDstIP, DstIP: pick(addrs), DstBits: short}
		}
	case 7: // portless wildcard
		m = Match{Fields: FieldEthType, EthType: []uint16{packet.EtherTypeIPv4, 0x0806}[r.Intn(2)]}
	default: // the hot address
		m = Match{Fields: FieldSrcIP, SrcIP: hot, SrcBits: exact}
		if r.Intn(3) == 0 {
			m = Match{Fields: FieldDstIP, DstIP: hot, DstBits: exact}
		}
	}
	if r.Intn(2) == 0 {
		m.Fields |= FieldProto
		m.Proto = []byte{packet.IPProtoTCP, packet.IPProtoUDP}[r.Intn(2)]
	}
	if r.Intn(3) == 0 {
		m.Fields |= FieldDstPort
		m.DstPort = ports[r.Intn(len(ports))]
	}
	if r.Intn(8) == 0 {
		m.Fields |= FieldInPort
		m.InPort = uint16(r.Intn(2))
	}
	e := FlowEntry{Priority: r.Intn(4), Match: m, Cookie: uint64(g.nextID % 7), Actions: []Action{Output(uint16(g.nextID))}}
	if r.Intn(40) == 0 { // matches everything, so it does not get to stay
		e.Match, e.Cookie = Match{}, anyCookie
	}
	g.nextID++
	return e
}

// TestIndexedLookupMatchesScan is the differential oracle for the
// address index: over seeded rule sets built to sit on every seam of the
// index, with every kind of table write landing between packets, Lookup
// must return the rule the reference walk over one ordered slice returns
// — and bill it, so the final counters agree too.
func TestIndexedLookupMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := newRuleGen(seed)
		r, addrs, hot, outside, ports, pick := g.r, g.addrs, g.hot, g.outside, g.ports, g.pick
		ref, fast := &scanTable{}, NewFlowTable()
		var pairs twins
		// install puts twin copies of the rules in both tables: one by
		// one in the reference, as one InstallAll (or Install, for one
		// rule) in the indexed table.
		install := func(rules ...FlowEntry) {
			batch := make([]*FlowEntry, len(rules))
			for i := range rules {
				e, copied := &rules[i], rules[i]
				ref.Install(e, 0)
				batch[i] = &copied
				pairs.add(e, &copied)
			}
			if len(batch) == 1 {
				fast.Install(batch[0], 0)
			} else {
				fast.InstallAll(batch, 0)
			}
		}
		drawn := func(k int) []FlowEntry {
			rules := make([]FlowEntry, k)
			for i := range rules {
				rules[i] = g.rule()
			}
			return rules
		}

		install(drawn(60)...)
		for i := 0; i < leafMax+40; i++ { // hot outgrows one leaf, one rule at a time
			install(FlowEntry{Priority: r.Intn(4), Cookie: 100, Actions: []Action{Output(uint16(g.nextID))},
				Match: Match{Fields: FieldSrcIP | FieldDstPort, SrcIP: hot, SrcBits: 32, DstPort: uint16(1000 + i)}})
			g.nextID++
		}
		checkSnapshot(t, "after fill", fast.snap.Load())

		var matched, missed, crossTies, removed int
		for step := 0; step < 5000; step++ {
			switch op := r.Intn(100); {
			case op < 3:
				install(drawn(1)...)
			case op < 6:
				install(drawn(2 + r.Intn(7))...)
			case op < 7:
				a, b := uint64(r.Intn(7)), uint64(r.Intn(7))
				want := ref.RemoveByCookie(a)
				if r.Intn(2) == 0 {
					if got := fast.RemoveByCookie(a); got != want {
						t.Fatalf("seed %d step %d: RemoveByCookie(%d) removed %d, reference %d", seed, step, a, got, want)
					}
					break
				}
				want += ref.RemoveByCookie(b)
				if got := fast.RemoveByCookie(a, b); got != want {
					t.Fatalf("seed %d step %d: RemoveByCookie(%d, %d) removed %d, reference %d", seed, step, a, b, got, want)
				}
			case op < 9:
				removed += pairs.remove(t, fmt.Sprintf("seed %d step %d", seed, step), r, 1+r.Intn(3), ref, fast)
			case op < 10:
				if got, want := fast.RemoveByCookie(anyCookie), ref.RemoveByCookie(anyCookie); got != want {
					t.Fatalf("seed %d step %d: RemoveByCookie(anyCookie) removed %d, reference %d", seed, step, got, want)
				}
			case op < 11:
				checkSnapshot(t, "mid-run", fast.snap.Load())
			default:
				f := PacketFields{InPort: uint16(r.Intn(2)), EthType: packet.EtherTypeIPv4,
					SrcIP: pick(addrs), DstIP: pick(addrs),
					Proto: []byte{packet.IPProtoTCP, packet.IPProtoUDP}[r.Intn(2)], SrcPort: ports[r.Intn(4)], DstPort: ports[r.Intn(4)]}
				switch r.Intn(8) {
				case 0:
					f.SrcIP = pick(outside)
				case 1:
					f.DstIP = pick(outside)
				case 2:
					f.SrcIP, f.DstIP = pick(outside), pick(outside) // only unpinned rules can match
				case 3:
					f.SrcIP, f.DstPort = hot, uint16(1000+r.Intn(leafMax+40))
				case 4:
					f = PacketFields{InPort: f.InPort, EthType: []uint16{0x0806, 0x86dd}[r.Intn(2)]} // non-IPv4 frame
				}
				size := 40 + r.Intn(1400)
				_, want := ref.Lookup(f, size)
				_, got := fast.Lookup(f, size)
				if (want == nil) != (got == nil) || want != nil && ruleID(want.Actions) != ruleID(got.Actions) {
					t.Fatalf("seed %d step %d: indexed lookup chose %v, reference scan %v (fields %+v)", seed, step, got, want, f)
				}
				if want == nil {
					missed++
					break
				}
				matched++
				// A tie between the two indexes: the best rule under the
				// source and the best under the destination have one
				// priority, so only install order separates them.
				s := fast.snap.Load()
				bySrc := s.bySrc.match(addrKey(f.SrcIP), f, slot{})
				byDst := s.byDst.match(addrKey(f.DstIP), f, slot{})
				if bySrc.e != nil && byDst.e != nil && bySrc.e.Priority == byDst.e.Priority {
					crossTies++
				}
			}
		}
		checkSnapshot(t, "final", fast.snap.Load())
		sameEntries(t, "final table", ref.Entries(), fast.Entries())
		if matched < 1000 || missed < 20 || crossTies < 100 || removed < 20 {
			t.Errorf("seed %d: %d matched, %d missed, %d cross-index ties, %d removed by drawn removals; the rule mix no longer reaches every case",
				seed, matched, missed, crossTies, removed)
		}
		if n := len(fast.snap.Load().bySrc.leaves); n < 2 {
			t.Errorf("seed %d: bySrc ended with %d leaves; the hot address no longer splits one", seed, n)
		}
	}
}

// compiledShape installs what pvnc compiles for one subscriber of the
// benchmark's PVNC: three policies, out and in, pinned to its address.
func compiledShape(owner int) []*FlowEntry {
	addr := packet.IPv4Address{10, byte(16 + owner>>16), byte(owner >> 8), byte(owner)}
	var out []*FlowEntry
	for _, pol := range []struct {
		prio  int
		dport uint16
	}{{100, 80}, {90, 443}, {0, 0}} {
		o := Match{Fields: FieldSrcIP, SrcIP: addr, SrcBits: 32}
		i := Match{Fields: FieldDstIP, DstIP: addr, DstBits: 32}
		if pol.dport != 0 {
			o.Fields, o.Proto, o.DstPort = o.Fields|FieldProto|FieldDstPort, packet.IPProtoTCP, pol.dport
			i.Fields, i.Proto, i.SrcPort = i.Fields|FieldProto|FieldSrcPort, packet.IPProtoTCP, pol.dport
		}
		out = append(out,
			&FlowEntry{Priority: pol.prio, Match: o, Cookie: uint64(owner + 1), Actions: []Action{Output(1)}},
			&FlowEntry{Priority: pol.prio, Match: i, Cookie: uint64(owner + 1), Actions: []Action{Output(0)}})
	}
	return out
}

// allocSink keeps the reference allocations of TestInstallAllocBudget
// from being optimized away.
var allocSink any

// allocatedBytes reports how many bytes one call of f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestInstallAllocBudget: a rule write costs the leaves it touches, not
// the population. At 6000 installed rules one Install may allocate at
// most an eighth of a bare copy of the installed rules' pointers — what
// every write cost while the table kept a flat ordered copy of them.
func TestInstallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the allocator does")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tbl := NewFlowTable()
	for owner := 0; owner < 1000; owner++ {
		tbl.InstallAll(compiledShape(owner), 0)
	}
	flat := allocatedBytes(func() { allocSink = make([]*FlowEntry, tbl.Len()) })
	// Inside the address range and past it: a leaf copy, and a leaf
	// append.
	for _, owner := range []int{500, 5000} {
		var got uint64
		const rounds = 32
		for i := 0; i < rounds; i++ {
			e := compiledShape(owner)[0]
			e.Cookie = 1 << 40
			got += allocatedBytes(func() { tbl.Install(e, 0) })
			tbl.RemoveByCookie(1 << 40)
		}
		if got /= rounds; got > flat/8 {
			t.Errorf("owner %d: Install at %d rules allocates %d B; budget is 1/8 of a %d B pointer copy", owner, tbl.Len(), got, flat)
		} else {
			t.Logf("owner %d: Install at %d rules allocates %d B, a pointer copy %d B", owner, tbl.Len(), got, flat)
		}
	}
}

// TestRemoveAbsentCookie: a teardown that finds nothing to remove is
// free — no allocation, and no generation bump to flush flow caches.
func TestRemoveAbsentCookie(t *testing.T) {
	tbl := NewFlowTable()
	for owner := 0; owner < 300; owner++ {
		tbl.InstallAll(compiledShape(owner), 0)
	}
	tbl.Install(&FlowEntry{Cookie: 7, Actions: []Action{Drop()}}, 0) // an unpinned rule
	gen := tbl.Generation()
	allocs := testing.AllocsPerRun(50, func() {
		if n := tbl.RemoveByCookie(1 << 40); n != 0 {
			t.Fatalf("removed %d rules of an absent cookie", n)
		}
	})
	if allocs != 0 {
		t.Errorf("RemoveByCookie of an absent cookie allocated %v times per call", allocs)
	}
	if got := tbl.Generation(); got != gen {
		t.Errorf("generation moved %d -> %d", gen, got)
	}
}

// TestIndexedLookupUnderWrites: lookups walk leaves that successive
// snapshots share while a writer path-copies around them. Whatever
// lands in between, a resident subscriber's packet must always find
// that subscriber's rule — never a miss and never a neighbour's. Run
// under -race (make test-race).
func TestIndexedLookupUnderWrites(t *testing.T) {
	const residents, readers, lookups, writes = 300, 4, 4000, 400
	tbl := NewFlowTable()
	for owner := 0; owner < residents; owner++ {
		tbl.InstallAll(compiledShape(owner), 0)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				owner := (i*readers + r) % residents
				addr := compiledShape(owner)[0].Match.SrcIP
				f := PacketFields{EthType: packet.EtherTypeIPv4, SrcIP: addr, DstIP: packet.IPv4Address{93, 184, 216, 34},
					Proto: packet.IPProtoTCP, SrcPort: 40000, DstPort: []uint16{80, 443, 22}[i%3]}
				if i%2 == 1 {
					f.SrcIP, f.DstIP, f.SrcPort, f.DstPort = f.DstIP, f.SrcIP, f.DstPort, f.SrcPort
				}
				if _, e := tbl.Lookup(f, 40); e == nil || e.Cookie != uint64(owner+1) {
					t.Errorf("resident %d's packet found %v", owner, e)
					return
				}
			}
		}(r)
	}
	// Visitors attach between the residents' addresses and past them and
	// leave again: each one's first rule alone, then the rest by cookie.
	var firsts []*FlowEntry
	for i := 0; i < writes; i++ {
		visitor := residents + i%50
		rules := compiledShape(visitor)
		if i%2 == 0 {
			rules = compiledShape(i % residents) // a resident's address, the visitor's cookie
			for _, e := range rules {
				e.Cookie, e.Priority = uint64(visitor+1), e.Priority-1 // loses to the resident's own
			}
		}
		tbl.InstallAll(rules, 0)
		firsts = append(firsts, rules[0])
		if i%3 == 2 {
			tbl.RemoveEntries(firsts)
			firsts = firsts[:0]
			tbl.RemoveByCookie(uint64(visitor+1), uint64(visitor+2))
		}
	}
	wg.Wait()
	checkSnapshot(t, "after the race", tbl.snap.Load())
}

// fields draws a packet for the rule sets ruleGen builds: mostly between
// subscribers, some from or to outside, and some on the hot address's
// ports (1000 on).
func (g *ruleGen) fields() PacketFields {
	r := g.r
	f := PacketFields{InPort: uint16(r.Intn(2)), EthType: packet.EtherTypeIPv4,
		SrcIP: g.pick(g.addrs), DstIP: g.pick(g.addrs),
		Proto: []byte{packet.IPProtoTCP, packet.IPProtoUDP}[r.Intn(2)], SrcPort: g.ports[r.Intn(4)], DstPort: g.ports[r.Intn(4)]}
	switch r.Intn(6) {
	case 0:
		f.SrcIP = g.pick(g.outside)
	case 1:
		f.DstIP = g.pick(g.outside)
	case 2:
		f.SrcIP, f.DstPort = g.hot, uint16(1000+r.Intn(3*leafMax))
	case 3:
		f.DstIP, f.SrcPort = g.hot, uint16(1000+r.Intn(3*leafMax))
	}
	return f
}

// TestRemoveEntriesMatchesRemoveByCookie is the differential oracle for
// scoped removal. Two twin tables get the same deployments: seeded
// random rules (pinned by source, by destination and by neither), then
// four deployments interleaved on the hot address, one
// rule at a time, so its run spans several leaves with each of the four
// in every one. Tearing each deployment down by its own entries must
// leave what tearing it down by cookie leaves — the same rules in the
// same order, the same counters, the same answer to every lookup — and
// count what is filed as CountByCookie does. A second removal of the
// same entries finds nothing: it returns 0, publishes nothing and
// allocates nothing.
func TestRemoveEntriesMatchesRemoveByCookie(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := newRuleGen(seed)
		r := g.r
		byCookie, scoped := NewFlowTable(), NewFlowTable()
		deps := map[uint64][]*FlowEntry{} // each deployment's entries in scoped
		install := func(dep uint64, rules []FlowEntry) {
			a, b := make([]*FlowEntry, len(rules)), make([]*FlowEntry, len(rules))
			for i := range rules {
				ea, eb := rules[i], rules[i]
				ea.Cookie, eb.Cookie = dep, dep
				a[i], b[i] = &ea, &eb
			}
			byCookie.InstallAll(a, 0)
			scoped.InstallAll(b, 0)
			deps[dep] = append(deps[dep], b...)
		}
		const random, hotDeps = 30, 4
		for dep := uint64(1); dep <= random; dep++ {
			rules := make([]FlowEntry, 1+r.Intn(12))
			for i := range rules {
				rules[i] = g.rule()
			}
			install(dep, rules)
		}
		for i := 0; i < 3*leafMax; i++ {
			m := Match{Fields: FieldSrcIP | FieldDstPort, SrcIP: g.hot, SrcBits: 32, DstPort: uint16(1000 + i)}
			if i%5 == 0 {
				m = Match{Fields: FieldDstIP | FieldSrcPort, DstIP: g.hot, DstBits: 32, SrcPort: uint16(1000 + i)}
			}
			install(random+1+uint64(i%hotDeps), []FlowEntry{{Priority: r.Intn(4), Match: m, Actions: []Action{Output(uint16(g.nextID))}}})
			g.nextID++
		}
		hotLeaves := 0
		s := scoped.snap.Load()
		for _, leaf := range s.bySrc.leaves {
			if slices.ContainsFunc(leaf, func(o slot) bool { return o.e.Match.SrcIP == g.hot }) {
				hotLeaves++
			}
		}
		if hotLeaves < 3 || s.bySrc.leaves[0][0].e.Match.SrcIP == g.hot {
			t.Fatalf("seed %d: the hot run spans %d leaves; the rule mix no longer splits it mid-leaf", seed, hotLeaves)
		}
		if len(s.open) == 0 {
			t.Fatalf("seed %d: no unpinned rule installed", seed)
		}

		traffic := func(what string) {
			t.Helper()
			for i := 0; i < 300; i++ {
				f, size := g.fields(), 40+r.Intn(1400)
				_, want := byCookie.Lookup(f, size)
				_, got := scoped.Lookup(f, size)
				if (want == nil) != (got == nil) || want != nil && ruleID(want.Actions) != ruleID(got.Actions) {
					t.Fatalf("seed %d %s: scoped table chose %v, by-cookie table %v (fields %+v)", seed, what, got, want, f)
				}
			}
		}
		traffic("before removal")
		order := r.Perm(random + hotDeps)
		for step, i := range order {
			dep := uint64(i + 1)
			what := fmt.Sprintf("seed %d step %d (deployment %d)", seed, step, dep)
			want := byCookie.RemoveByCookie(dep)
			if got := scoped.RemoveEntries(deps[dep]); got != want {
				t.Fatalf("%s: RemoveEntries removed %d, RemoveByCookie %d", what, got, want)
			}
			checkSnapshot(t, what, scoped.snap.Load())
			sameEntries(t, what, byCookie.Entries(), scoped.Entries())
			for d, es := range deps {
				if got, want := scoped.CountFiled(es), byCookie.CountByCookie(d); got != want {
					t.Fatalf("%s: CountFiled(deployment %d) = %d, CountByCookie %d", what, d, got, want)
				}
			}
			gen := scoped.Generation()
			allocs := testing.AllocsPerRun(5, func() {
				if n := scoped.RemoveEntries(deps[dep]); n != 0 {
					t.Fatalf("%s: second removal removed %d", what, n)
				}
			})
			if allocs != 0 || scoped.Generation() != gen {
				t.Fatalf("%s: second removal allocated %v times per call, generation %d -> %d", what, allocs, gen, scoped.Generation())
			}
			traffic(what)
		}
		if scoped.Len() != 0 || byCookie.Len() != 0 {
			t.Fatalf("seed %d: %d and %d rules left", seed, scoped.Len(), byCookie.Len())
		}
	}
}

// TestRemoveEntriesWorkIsTenantSized: the leaves a deployment's
// teardown filters are set by its own rules, not by how many residents
// share the table — the same count at 10² and 10⁴ residents, for a
// resident in the middle of the address range and a visitor past its
// end.
func TestRemoveEntriesWorkIsTenantSized(t *testing.T) {
	work := map[string][]int{}
	for _, residents := range []int{100, 10000} {
		tbl := NewFlowTable()
		for owner := 0; owner < residents; owner++ {
			tbl.InstallAll(compiledShape(owner), 0)
		}
		visitor := compiledShape(70000) // 10.17.x.x, past every resident
		tbl.InstallAll(visitor, 0)
		for _, c := range []struct {
			what string
			es   []*FlowEntry
		}{{"visitor", visitor}, {"resident", tbl.residentEntries(compiledShape(residents / 2)[0].Cookie)}} {
			before := tbl.leavesFiltered
			if n := tbl.RemoveEntries(c.es); n != len(c.es) {
				t.Fatalf("%d residents, %s: removed %d of %d", residents, c.what, n, len(c.es))
			}
			work[c.what] = append(work[c.what], tbl.leavesFiltered-before)
		}
	}
	for what, w := range work {
		if w[0] != w[1] || w[0] > 4 {
			t.Errorf("%s teardown filtered %d leaves at 10² residents, %d at 10⁴; want one equal count of at most 4", what, w[0], w[1])
		} else {
			t.Logf("%s teardown filters %d leaves at 10² and at 10⁴ residents", what, w[0])
		}
	}
}

// residentEntries returns the live entries carrying the cookie, the
// pointers a deployment server would have kept from its install.
func (t *FlowTable) residentEntries(cookie uint64) []*FlowEntry {
	var out []*FlowEntry
	t.snap.Load().each(func(o slot) {
		if o.e.Cookie == cookie {
			out = append(out, o.e)
		}
	})
	return out
}
