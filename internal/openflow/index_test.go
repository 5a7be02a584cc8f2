package openflow

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pvn/internal/packet"
)

// checkSnapshot verifies what lookups take for granted about a
// snapshot: every rule is filed exactly once and in the place pinOf
// names, each place is in its own order, stamps agree with the order of
// entries, and leaves are neither empty nor oversized.
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
	if len(seqOf) != len(s.entries) {
		t.Fatalf("%s: %d rules filed, %d installed", what, len(seqOf), len(s.entries))
	}
	timed := 0
	for i, e := range s.entries {
		seq, ok := seqOf[e]
		if !ok {
			t.Fatalf("%s: entry %d is filed nowhere", what, i)
		}
		if i > 0 && !inOrder(slot{s.entries[i-1], seqOf[s.entries[i-1]]}, slot{e, seq}) {
			t.Fatalf("%s: entries out of match order at %d", what, i)
		}
		if e.timed() {
			timed++
		}
	}
	if timed != s.timed {
		t.Fatalf("%s: timed = %d, %d entries carry a timeout", what, s.timed, timed)
	}
}

// TestIndexedLookupMatchesScan is the differential oracle for the
// address index: over seeded rule sets built to sit on every seam of the
// index, with every kind of table write landing between packets, Lookup
// must return the rule the reference walk over one ordered slice returns
// — and bill it, so the final counters agree too.
func TestIndexedLookupMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		ref, fast := &scanTable{}, NewFlowTable()

		// Subscriber addresses, several to a /24 so prefix rules cover
		// addresses other than their own; the unset address non-IPv4
		// frames carry; and hot, which gets more rules than a leaf holds.
		var addrs []packet.IPv4Address
		for i := 0; i < 12; i++ {
			addrs = append(addrs, packet.IPv4Address{10, byte(i % 2), byte(i % 3), byte(1 + i)})
		}
		addrs = append(addrs, packet.IPv4Address{})
		hot := addrs[7]
		outside := []packet.IPv4Address{{93, 184, 216, 34}, {10, 0, 0, 200}, {172, 16, 0, 1}}
		ports := []uint16{80, 443, 53, 40000}
		pick := func(from []packet.IPv4Address) packet.IPv4Address { return from[r.Intn(len(from))] }

		nextID := 0
		rule := func() FlowEntry {
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
			e := FlowEntry{Priority: r.Intn(4), Match: m, Cookie: uint64(nextID % 7), Actions: []Action{Output(uint16(nextID))}}
			if r.Intn(5) == 0 {
				e.IdleTimeout = time.Duration(1+r.Intn(60)) * time.Millisecond
			}
			if r.Intn(6) == 0 {
				e.HardTimeout = time.Duration(1+r.Intn(300)) * time.Millisecond
			}
			if r.Intn(40) == 0 { // matches everything, so it does not get to stay
				e.Match, e.HardTimeout = Match{}, time.Duration(1+r.Intn(20))*time.Millisecond
			}
			nextID++
			return e
		}
		// install puts k twin rules in both tables: one by one in the
		// reference, as one InstallAll (or Install, for k = 1) in the
		// indexed table.
		install := func(k int, now time.Duration) {
			batch := make([]*FlowEntry, k)
			for i := range batch {
				e := rule()
				twin := e
				ref.Install(&e, now)
				batch[i] = &twin
			}
			if k == 1 {
				fast.Install(batch[0], now)
			} else {
				fast.InstallAll(batch, now)
			}
		}

		var now time.Duration
		install(60, now)
		for i := 0; i < leafMax+40; i++ { // hot outgrows one leaf, one rule at a time
			e := FlowEntry{Priority: r.Intn(4), Cookie: 100, Actions: []Action{Output(uint16(nextID))},
				Match: Match{Fields: FieldSrcIP | FieldDstPort, SrcIP: hot, SrcBits: 32, DstPort: uint16(1000 + i)}}
			nextID++
			twin := e
			ref.Install(&e, now)
			fast.Install(&twin, now)
		}
		checkSnapshot(t, "after fill", fast.snap.Load())

		var matched, missed, crossTies int
		for step := 0; step < 5000; step++ {
			now += time.Duration(r.Intn(200)) * time.Microsecond
			switch op := r.Intn(100); {
			case op < 3:
				install(1, now)
			case op < 6:
				install(2+r.Intn(7), now)
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
			case op < 10:
				sameEntries(t, "expired", ref.Expire(now), fast.Expire(now))
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
				_, want := ref.Lookup(f, size, now)
				_, got := fast.Lookup(f, size, now)
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
		if matched < 1000 || missed < 20 || crossTies < 100 {
			t.Errorf("seed %d: %d matched, %d missed, %d cross-index ties; the rule mix no longer reaches every case", seed, matched, missed, crossTies)
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

// TestInstallAllocBudget: the index must not make a rule write
// noticeably dearer than the O(rules) copy of the ordered slice it
// already was. At 6000 installed rules one Install may allocate at most
// 1.25x the bytes the pre-index table did: a slice of n+1 pointers and
// a three-word snapshot.
func TestInstallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the allocator does")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tbl := NewFlowTable()
	for owner := 0; owner < 1000; owner++ {
		tbl.InstallAll(compiledShape(owner), 0)
	}
	parent := allocatedBytes(func() {
		allocSink = make([]*FlowEntry, tbl.Len()+1)
		allocSink = &struct {
			gen     uint64
			entries []*FlowEntry
			timed   int
		}{}
	})
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
		if got /= rounds; float64(got) > 1.25*float64(parent) {
			t.Errorf("owner %d: Install at %d rules allocates %d B, the pre-index table %d B; budget is 1.25x", owner, tbl.Len(), got, parent)
		} else {
			t.Logf("owner %d: Install at %d rules allocates %d B, the pre-index table %d B", owner, tbl.Len(), got, parent)
		}
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
				if _, e := tbl.Lookup(f, 40, time.Duration(i)); e == nil || e.Cookie != uint64(owner+1) {
					t.Errorf("resident %d's packet found %v", owner, e)
					return
				}
			}
		}(r)
	}
	// Visitors attach between the residents' addresses and past them,
	// some with rules that time out, and leave again.
	for i := 0; i < writes; i++ {
		visitor := residents + i%50
		rules := compiledShape(visitor)
		if i%2 == 0 {
			rules = compiledShape(i % residents) // a resident's address, the visitor's cookie
			for _, e := range rules {
				e.Cookie, e.Priority = uint64(visitor+1), e.Priority-1 // loses to the resident's own
			}
		}
		rules[0].HardTimeout = time.Millisecond
		tbl.InstallAll(rules, time.Duration(i))
		if i%3 == 2 {
			tbl.Expire(time.Duration(i) + time.Millisecond)
			tbl.RemoveByCookie(uint64(visitor+1), uint64(visitor+2))
		}
	}
	wg.Wait()
	checkSnapshot(t, "after the race", tbl.snap.Load())
}
