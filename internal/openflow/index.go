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
// decided across the places a rule can be filed, and without a field on
// FlowEntry (which sits exactly on a size class).
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

// leafMax bounds one leaf of an addrIndex: an install copies one leaf
// plus the root, and a lookup binary-searches inside one leaf.
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

// filter returns run without the slots whose entries dead selects,
// appending those to gone. A run that loses nothing comes back as it is,
// with nothing allocated.
func filter(run []slot, dead func(*FlowEntry) bool, gone []slot) ([]slot, []slot) {
	first := slices.IndexFunc(run, func(s slot) bool { return dead(s.e) })
	if first < 0 {
		return run, gone
	}
	kept := append(make([]slot, 0, len(run)-1), run[:first]...)
	for _, s := range run[first:] {
		if dead(s.e) {
			gone = append(gone, s)
		} else {
			kept = append(kept, s)
		}
	}
	return kept, gone
}

// filter returns the index without the slots whose entries dead
// selects, appending those to gone. Each leaf is filtered on its own: a
// leaf that loses nothing is shared, one that loses everything vanishes,
// and an index that loses nothing comes back as it is.
func (ix addrIndex) filter(dead func(*FlowEntry) bool, gone []slot) (addrIndex, []slot) {
	var leaves [][]slot // nil until some leaf loses a slot
	for i, leaf := range ix.leaves {
		had := len(gone)
		var kept []slot
		kept, gone = filter(leaf, dead, gone)
		if len(gone) > had && leaves == nil {
			leaves = append(make([][]slot, 0, len(ix.leaves)), ix.leaves[:i]...)
		}
		if leaves != nil && len(kept) > 0 {
			leaves = append(leaves, kept)
		}
	}
	if leaves == nil {
		return ix, gone
	}
	return addrIndex{dst: ix.dst, leaves: leaves}, gone
}

// unpinned reports whether e is filed in the unpinned list.
func unpinned(e *FlowEntry) bool { return pinOf(&e.Match) == pinNone }

// runs calls fn once for every leaf of each address run that can hold
// one of es's entries pinned p: the leaves from the first slot filed
// under that address to the last, which may be two leaves or more.
// Addresses several entries share are walked once; a leaf holding two
// of the addresses is passed once for each.
func (ix *addrIndex) runs(es []*FlowEntry, p pin, fn func(addr uint32, leaf int)) {
	for i, e := range es {
		if pinOf(&e.Match) != p {
			continue
		}
		addr := ix.key(e)
		if slices.ContainsFunc(es[:i], func(o *FlowEntry) bool { return pinOf(&o.Match) == p && ix.key(o) == addr }) {
			continue
		}
		for leaf, _ := ix.seek(addr); leaf < len(ix.leaves); leaf++ {
			l := ix.leaves[leaf]
			if ix.key(l[0].e) > addr {
				break
			}
			fn(addr, leaf)
			if ix.key(l[len(l)-1].e) != addr {
				break // the run ends inside this leaf
			}
		}
	}
}

// filterRuns is filter over only the leaves runs names for es, and also
// reports how many leaf filters it ran. Every other leaf, and the index
// itself when nothing is removed, is shared as it is.
func (ix addrIndex) filterRuns(es []*FlowEntry, p pin, dead func(*FlowEntry) bool, gone []slot) (addrIndex, []slot, int) {
	var leaves [][]slot // a copy of the root once some leaf loses a slot
	filtered := 0
	ix.runs(es, p, func(_ uint32, i int) {
		filtered++
		cur := ix.leaves[i]
		if leaves != nil {
			cur = leaves[i] // a leaf shared by two runs may have lost slots already
		}
		had := len(gone)
		var kept []slot
		kept, gone = filter(cur, dead, gone)
		if len(gone) > had {
			if leaves == nil {
				leaves = slices.Clone(ix.leaves)
			}
			leaves[i] = kept
		}
	})
	if leaves == nil {
		return ix, gone, filtered
	}
	leaves = slices.DeleteFunc(leaves, func(l []slot) bool { return len(l) == 0 })
	return addrIndex{dst: ix.dst, leaves: leaves}, gone, filtered
}

// countRuns returns how many of es's entries pinned p are filed in ix,
// walking the same leaves filterRuns would filter.
func (ix *addrIndex) countRuns(es []*FlowEntry, p pin) int {
	n := 0
	ix.runs(es, p, func(addr uint32, i int) {
		for _, s := range ix.leaves[i] {
			if ix.key(s.e) == addr && slices.Contains(es, s.e) {
				n++
			}
		}
	})
	return n
}
