package openflow

import (
	"encoding/binary"
	"slices"
	"sort"

	"pvn/internal/packet"
)

// slot is one rule as the index files it: the entry and its install
// stamp. Stamps grow with every install, so between two rules of equal
// priority the lower stamp is the earlier-installed one — match order
// decided without finding either rule in the ordered entries slice, and
// without a field on FlowEntry (which sits exactly on a size class).
type slot struct {
	e   *FlowEntry
	seq uint64
}

// beats reports whether s comes before o in match order; anything beats
// the empty slot.
func (s slot) beats(o slot) bool {
	return o.e == nil || s.e.Priority > o.e.Priority || s.e.Priority == o.e.Priority && s.seq < o.seq
}

// pin says which index a rule is filed in.
type pin uint8

const (
	pinNone pin = iota // matches no single address: the unpinned list
	pinSrc             // only packets from one exact source address
	pinDst             // only packets to one exact destination address
)

// exactBits reports whether a prefix length selects a single address;
// zero is the /32 compatibility case.
func exactBits(bits uint8) bool { return bits == 0 || bits >= 32 }

// pinOf classifies a match. A rule pinned on both sides is filed by its
// source; either index would find it.
func pinOf(m *Match) pin {
	switch {
	case m.Fields&FieldSrcIP != 0 && exactBits(m.SrcBits):
		return pinSrc
	case m.Fields&FieldDstIP != 0 && exactBits(m.DstBits):
		return pinDst
	}
	return pinNone
}

func addrKey(a packet.IPv4Address) uint32 { return binary.BigEndian.Uint32(a[:]) }

// leafMax bounds one leaf of an addrIndex: a write copies one leaf, so
// this is the per-install cost the index adds to the O(rules) copy of
// the ordered slice, and a lookup's binary search inside the leaf.
const leafMax = 128

// addrIndex holds the rules pinned to an exact source (or, with dst
// set, destination) address, sorted by that address and in match order
// within one address. It is a persistent two-level array: non-empty
// leaves of at most leafMax slots under one root slice. A write copies
// the root and the leaves it touches and shares every other leaf with
// the index it came from, so snapshots of successive generations hold
// one copy of what did not change. Leaves split when full and vanish
// when empty but never merge: the leaf count stays within twice what
// the table's peak rule count needs.
type addrIndex struct {
	dst    bool
	leaves [][]slot
}

func (ix *addrIndex) key(e *FlowEntry) uint32 {
	if ix.dst {
		return addrKey(e.Match.DstIP)
	}
	return addrKey(e.Match.SrcIP)
}

// seek returns the position of the first slot whose address is not
// below addr; leaf == len(ix.leaves) when there is none.
func (ix *addrIndex) seek(addr uint32) (leaf, i int) {
	leaf = sort.Search(len(ix.leaves), func(n int) bool {
		l := ix.leaves[n]
		return ix.key(l[len(l)-1].e) >= addr
	})
	if leaf < len(ix.leaves) {
		l := ix.leaves[leaf]
		i = sort.Search(len(l), func(n int) bool { return ix.key(l[n].e) >= addr })
	}
	return leaf, i
}

// match returns the first rule filed under addr that matches f, if it
// beats best, and best otherwise. The index only narrows the candidates
// to addr's rules; Matches still decides.
func (ix *addrIndex) match(addr uint32, f PacketFields, best slot) slot {
	for leaf, i := ix.seek(addr); leaf < len(ix.leaves); leaf, i = leaf+1, 0 {
		for _, s := range ix.leaves[leaf][i:] {
			if ix.key(s.e) != addr || !s.beats(best) {
				return best
			}
			if s.e.Match.Matches(f) {
				return s
			}
		}
	}
	return best
}

// with returns the index plus s. The new rule is the youngest of its
// priority, so it goes after every rule of its address that has its
// priority or a higher one.
func (ix addrIndex) with(s slot) addrIndex {
	if len(ix.leaves) == 0 {
		return addrIndex{dst: ix.dst, leaves: [][]slot{{s}}}
	}
	addr := ix.key(s.e)
	after := func(o slot) bool { // o sorts after s
		k := ix.key(o.e)
		return k > addr || k == addr && o.e.Priority < s.e.Priority
	}
	// The last leaf that does not start after s takes it.
	li := max(sort.Search(len(ix.leaves), func(n int) bool { return after(ix.leaves[n][0]) })-1, 0)
	old := ix.leaves[li]
	at := sort.Search(len(old), func(n int) bool { return after(old[n]) })

	var put [][]slot // what replaces leaf li
	switch {
	case len(old) < leafMax:
		put = [][]slot{splice(old, at, s)}
	case at == len(old):
		// Appending to a full leaf — how ascending addresses arrive —
		// opens a new leaf instead of halving a full one, so a table
		// filled in address order ends up with full leaves.
		put = [][]slot{old, {s}}
	default:
		both := splice(old, at, s)
		half := len(both) / 2
		// Two arrays: a shared one would stay whole for as long as
		// either half lives.
		put = [][]slot{slices.Clone(both[:half]), slices.Clone(both[half:])}
	}
	leaves := make([][]slot, 0, len(ix.leaves)+len(put)-1)
	leaves = append(append(append(leaves, ix.leaves[:li]...), put...), ix.leaves[li+1:]...)
	return addrIndex{dst: ix.dst, leaves: leaves}
}

// splice returns a copy of run with s inserted at position at.
func splice(run []slot, at int, s slot) []slot {
	out := make([]slot, len(run)+1)
	copy(out, run[:at])
	out[at] = s
	copy(out[at+1:], run[at:])
	return out
}

// strain returns run without the slots that hold dead's leading
// entries, and what is left of dead. Both must be in one order, so the
// next entry to drop is always dead's head.
func strain(run []slot, dead []*FlowEntry) ([]slot, []*FlowEntry) {
	kept := make([]slot, 0, len(run))
	for _, s := range run {
		if len(dead) > 0 && s.e == dead[0] {
			dead = dead[1:]
			continue
		}
		kept = append(kept, s)
	}
	return kept, dead
}

// without returns the index minus the slots of dead, every one of which
// it must hold. dead arrives in match order and is reordered in place.
func (ix addrIndex) without(dead []*FlowEntry) addrIndex {
	if len(dead) == 0 {
		return ix
	}
	// Stable by (address, priority) puts match-ordered rules in index
	// order, so one forward sweep meets them in turn.
	sort.SliceStable(dead, func(a, b int) bool {
		ka, kb := ix.key(dead[a]), ix.key(dead[b])
		return ka < kb || ka == kb && dead[a].Priority > dead[b].Priority
	})
	li, _ := ix.seek(ix.key(dead[0]))
	leaves := make([][]slot, li, len(ix.leaves))
	copy(leaves, ix.leaves[:li])
	for ; li < len(ix.leaves) && len(dead) > 0; li++ {
		leaf := ix.leaves[li]
		if ix.key(leaf[len(leaf)-1].e) < ix.key(dead[0]) {
			leaves = append(leaves, leaf) // ends below the next dead rule's address
			continue
		}
		var kept []slot
		if kept, dead = strain(leaf, dead); len(kept) > 0 {
			leaves = append(leaves, kept)
		}
	}
	if len(dead) > 0 {
		panic("openflow: installed rule missing from its address index")
	}
	return addrIndex{dst: ix.dst, leaves: append(leaves, ix.leaves[li:]...)}
}
