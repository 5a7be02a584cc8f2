package openflow

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"pvn/internal/packet"
)

// refPrefixMatch is an independent reference implementation of prefix
// matching for cross-checking.
func refPrefixMatch(addr, want packet.IPv4Address, bits uint8) bool {
	if bits == 0 || bits >= 32 {
		return addr == want
	}
	for i := uint8(0); i < bits; i++ {
		byteIdx, bitIdx := i/8, 7-i%8
		if (addr[byteIdx]>>bitIdx)&1 != (want[byteIdx]>>bitIdx)&1 {
			return false
		}
	}
	return true
}

// TestQuickPrefixMatchAgainstReference: the fast mask implementation
// agrees with the bit-by-bit reference on arbitrary inputs.
func TestQuickPrefixMatchAgainstReference(t *testing.T) {
	if err := quick.Check(func(a, w [4]byte, bits uint8) bool {
		bits = bits % 40 // include out-of-range values
		addr, want := packet.IPv4Address(a), packet.IPv4Address(w)
		return prefixMatch(addr, want, bits) == refPrefixMatch(addr, want, bits)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrefixSelfMatch: every address matches itself at every
// prefix length.
func TestQuickPrefixSelfMatch(t *testing.T) {
	if err := quick.Check(func(a [4]byte, bits uint8) bool {
		addr := packet.IPv4Address(a)
		return prefixMatch(addr, addr, bits%33)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMatchWildcardIsTop: a match with no fields set accepts every
// packet summary.
func TestQuickMatchWildcardIsTop(t *testing.T) {
	m := &Match{}
	if err := quick.Check(func(src, dst [4]byte, proto byte, sp, dp uint16, inPort uint16) bool {
		return m.Matches(PacketFields{
			InPort: inPort, SrcIP: src, DstIP: dst, Proto: proto, SrcPort: sp, DstPort: dp,
		})
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMeterNeverExceedsRate: over any long run of Shape calls, the
// conforming transmission schedule never beats rate + burst.
func TestQuickMeterNeverExceedsRate(t *testing.T) {
	if err := quick.Check(func(seedRate uint16, nPkts uint8) bool {
		rate := 10_000 + float64(seedRate)*100 // 10kbps..6.5Mbps
		burst := 8 << 10
		m := &Meter{RateBps: rate, BurstBytes: burst}
		const pkt = 1000
		n := int(nPkts)%200 + 10
		// Offer everything at t=0; the last packet's release time bounds
		// the schedule.
		var release time.Duration
		for i := 0; i < n; i++ {
			d := m.Shape(0, pkt)
			if d > release {
				release = d
			}
		}
		totalBits := float64(n * pkt * 8)
		// bits sent by time `release` must satisfy
		// totalBits <= burst*8 + rate * release.
		budget := float64(burst*8) + rate*release.Seconds() + 1e-6
		return totalBits <= budget+float64(pkt*8) // one packet of slack (release is start-of-tx)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTableLookupDeterministic: for any set of random rules,
// looking the same packet up twice gives the same entry.
func TestQuickTableLookupDeterministic(t *testing.T) {
	if err := quick.Check(func(prios []uint8, f PacketFields) bool {
		tbl := NewFlowTable()
		for i, p := range prios {
			if i > 20 {
				break
			}
			tbl.Install(&FlowEntry{Priority: int(p), Cookie: uint64(i),
				Actions: []Action{Output(uint16(i))}}, 0)
		}
		a1, e1 := tbl.Lookup(f, 1)
		a2, e2 := tbl.Lookup(f, 1)
		if e1 == nil || e2 == nil {
			return e1 == e2
		}
		return e1.Cookie == e2.Cookie && a1[0].Port == a2[0].Port
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInstallOrder: Install places each rule by binary search
// instead of re-sorting; the result must equal a stable sort of the
// install sequence by descending priority, whatever removals happen in
// between. InstallAll of k rules must leave what k Install calls leave —
// the same Entries() order and the same lookups — in one generation.
func TestQuickInstallOrder(t *testing.T) {
	probes := []PacketFields{{}, {SrcIP: packet.IPv4Address{10, 0, 0, 1}}, {DstIP: packet.IPv4Address{10, 0, 0, 2}},
		{SrcIP: packet.IPv4Address{10, 0, 0, 3}, DstIP: packet.IPv4Address{10, 0, 0, 1}}}
	if err := quick.Check(func(prios []uint8, chunk uint8) bool {
		one, all := NewFlowTable(), NewFlowTable()
		var want, batch []*FlowEntry
		flush := func() bool {
			gen := all.snap.Load().gen
			if len(batch) > 0 {
				gen++ // one write, however many rules
			}
			all.InstallAll(batch, 0)
			batch = nil
			return all.snap.Load().gen == gen
		}
		for i, p := range prios {
			// A third of the rules pinned by source, a third by
			// destination, a third unpinned, over three addresses.
			e := FlowEntry{Priority: int(p % 8), Cookie: uint64(i)}
			switch addr := (packet.IPv4Address{10, 0, 0, 1 + p>>3%3}); p >> 6 {
			case 0:
				e.Match = Match{Fields: FieldSrcIP, SrcIP: addr, SrcBits: 32}
			case 1:
				e.Match = Match{Fields: FieldDstIP, DstIP: addr}
			}
			twin := e
			one.Install(&e, 0)
			batch = append(batch, &twin)
			want = append(want, &e)
			if len(batch) > int(chunk%7) && !flush() {
				return false
			}
			if i%5 == 4 {
				if !flush() {
					return false
				}
				one.RemoveByCookie(uint64(i - 2))
				all.RemoveByCookie(uint64(i - 2))
				want = append(want[:len(want)-3], want[len(want)-2:]...)
			}
		}
		if !flush() {
			return false
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Priority > want[j].Priority })
		for _, got := range [][]*FlowEntry{one.Entries(), all.Entries()} {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].Cookie != want[i].Cookie {
					return false
				}
			}
		}
		for _, f := range probes {
			_, a := one.Lookup(f, 1)
			_, b := all.Lookup(f, 1)
			if (a == nil) != (b == nil) || a != nil && a.Cookie != b.Cookie {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
