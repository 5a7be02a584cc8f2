package openflow

import (
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
func fastLookup(t *FlowTable, c *flowCache, p probe, now time.Duration) []Action {
	if actions, e := t.lookupCached(c, p.key, p.cacheable, p.size, now); e != nil {
		return actions
	}
	actions, _ := t.lookupScan(c, p.key, p.cacheable, p.fields, p.size, now)
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

// sameEntries compares what two tables hold, or what two Expire calls
// returned: same rules in the same order with the same counters.
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

// TestFlowCacheBounded: one more distinct flow than the cache may hold
// flushes it instead of growing it, the flush is counted, and the
// answers and per-rule counters stay those of the uncached Lookup.
func TestFlowCacheBounded(t *testing.T) {
	ref, fast := &scanTable{}, NewFlowTable()
	for _, install := range []func(*FlowEntry, time.Duration){ref.Install, fast.Install} {
		install(&FlowEntry{Priority: 20, Match: Match{Fields: FieldDstPort, DstPort: 443}, Actions: []Action{Output(1)}}, 0)
		install(&FlowEntry{Priority: 10, Match: Match{Fields: FieldProto, Proto: packet.IPProtoTCP}, Actions: []Action{Output(2)}}, 0)
	}
	c := newFlowCache()
	dst := packet.MustParseIPv4("93.184.216.34")
	flow := func(i int) probe {
		src := packet.IPv4Address{10, byte(i >> 16), 0, 1}
		return tcpProbe(src, dst, uint16(i), uint16(80+363*(i%2)), 0, 40+i%7)
	}
	check := func(i int) {
		p := flow(i)
		want, _ := ref.Lookup(p.fields, p.size, 0)
		if got := fastLookup(fast, c, p, 0); ruleID(got) != ruleID(want) {
			t.Fatalf("flow %d: cached path chose rule %d, Lookup rule %d", i, ruleID(got), ruleID(want))
		}
		if len(c.m) > flowCacheMax {
			t.Fatalf("flow %d: cache holds %d entries, bound is %d", i, len(c.m), flowCacheMax)
		}
	}
	for i := 0; i < flowCacheMax; i++ {
		check(i)
	}
	if len(c.m) != flowCacheMax || c.flushes.Load() != 0 {
		t.Fatalf("at the bound: %d entries, %d flushes; want %d and 0", len(c.m), c.flushes.Load(), flowCacheMax)
	}
	check(flowCacheMax) // the one that does not fit
	if len(c.m) != 1 || c.flushes.Load() != 1 {
		t.Fatalf("past the bound: %d entries, %d flushes; want 1 and 1", len(c.m), c.flushes.Load())
	}
	for i := 0; i < 64; i++ { // flushed flows come back through the scan, then hit
		check(i)
		check(i)
	}
	sameEntries(t, "after overflow", ref.Entries(), fast.Entries())
}

// TestCachedLookupMatchesLookup is the differential oracle for the
// dataplane's rule fast path: whatever rule writes land between packets,
// lookupCached followed on a miss by lookupScan must pick the rule the
// reference scan picks on a twin rule set and leave every entry's
// counters the same — including entries Expire hands back and packets
// that cannot be cached, which share one meaningless key.
func TestCachedLookupMatchesLookup(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		ref, fast := &scanTable{}, NewFlowTable()
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
		// Non-IPv4 frames: never cacheable, all under the zero key of
		// their port, told apart only by their fields.
		for _, eth := range []uint16{0x0806, 0x86dd} {
			flows = append(flows, probe{key: CacheKey{InPort: 0}, fields: PacketFields{EthType: eth}, size: 60})
		}

		nextID := 0
		twinRule := func(now time.Duration) {
			m := Match{Fields: FieldSet(r.Intn(1 << 7)), InPort: uint16(r.Intn(2)),
				EthType: []uint16{packet.EtherTypeIPv4, 0x0806}[r.Intn(2)],
				SrcIP:   addrs[r.Intn(4)], SrcBits: uint8(8 * r.Intn(5)),
				DstIP: addrs[r.Intn(4)], DstBits: uint8(8 * r.Intn(5)),
				Proto: packet.IPProtoTCP, SrcPort: ports[r.Intn(5)], DstPort: ports[r.Intn(5)]}
			if r.Intn(3) == 0 {
				m.Fields &= FieldEthType | FieldInPort // broad rules, so most packets match something
			}
			e := FlowEntry{Priority: r.Intn(4), Match: m, Cookie: uint64(nextID % 5),
				Actions: []Action{Output(uint16(nextID))}}
			if r.Intn(3) == 0 {
				e.IdleTimeout = time.Duration(1+r.Intn(40)) * time.Millisecond
			}
			if r.Intn(4) == 0 {
				e.HardTimeout = time.Duration(1+r.Intn(200)) * time.Millisecond
			}
			nextID++
			twin := e
			ref.Install(&e, now)
			fast.Install(&twin, now)
		}

		var now time.Duration
		for i := 0; i < 12; i++ {
			twinRule(now)
		}
		for step := 0; step < 6000; step++ {
			now += time.Duration(r.Intn(300)) * time.Microsecond
			switch op := r.Intn(100); {
			case op < 2:
				twinRule(now)
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
				sameEntries(t, "expired", ref.Expire(now), fast.Expire(now))
			default:
				p := flows[r.Intn(len(flows))]
				want, _ := ref.Lookup(p.fields, p.size, now)
				c := caches[p.key.Flow.FastHash()%2]
				if got := fastLookup(fast, c, p, now); ruleID(got) != ruleID(want) || len(got) != len(want) {
					t.Fatalf("seed %d step %d: cached path chose rule %d, Lookup rule %d (fields %+v)", seed, step, ruleID(got), ruleID(want), p.fields)
				}
			}
		}
		sameEntries(t, "final table", ref.Entries(), fast.Entries())
		if len(caches[0].m)+len(caches[1].m) == 0 {
			t.Errorf("seed %d: nothing was ever cached; the test did not reach the fast path", seed)
		}
	}
}
