package openflow

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// scanTable is the rule table as it was before the address index — one
// slice in match order, looked up by walking it from the top — kept as
// the reference the indexed FlowTable is held to. It shares nothing with
// the index but FlowEntry and Match.Matches. Single-goroutine.
type scanTable struct{ entries []*FlowEntry }

// Install takes FlowTable.Install's signature, so the differentials
// can install twins through one function value; now is ignored there
// too.
func (r *scanTable) Install(e *FlowEntry, _ time.Duration) {
	at := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].Priority < e.Priority })
	r.entries = append(r.entries, nil)
	copy(r.entries[at+1:], r.entries[at:])
	r.entries[at] = e
}

func (r *scanTable) remove(dead func(*FlowEntry) bool) (removed []*FlowEntry) {
	kept := r.entries[:0:0]
	for _, e := range r.entries {
		if dead(e) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	return removed
}

func (r *scanTable) RemoveByCookie(cookie uint64) int {
	return len(r.remove(func(e *FlowEntry) bool { return e.Cookie == cookie }))
}

// RemoveEntries deletes exactly the given entries and returns them in
// match order.
func (r *scanTable) RemoveEntries(es []*FlowEntry) []*FlowEntry {
	return r.remove(func(e *FlowEntry) bool { return slices.Contains(es, e) })
}

func (r *scanTable) Lookup(f PacketFields, size int) ([]Action, *FlowEntry) {
	for _, e := range r.entries {
		if e.Match.Matches(f) {
			e.Count(size)
			return e.Actions, e
		}
	}
	return missActions, nil
}

func (r *scanTable) StatsByCookie(cookie uint64) (packets, bytes int64) {
	for _, e := range r.entries {
		if e.Cookie == cookie {
			packets, bytes = packets+e.Packets, bytes+e.Bytes
		}
	}
	return packets, bytes
}

func (r *scanTable) Entries() []*FlowEntry { return r.entries }

// twins pairs each rule installed in the reference with its copy in the
// table under test, in install order, removed or not.
type twins struct {
	refs []*FlowEntry
	copy map[*FlowEntry]*FlowEntry
}

func (w *twins) add(ref, fast *FlowEntry) {
	if w.copy == nil {
		w.copy = map[*FlowEntry]*FlowEntry{}
	}
	w.refs, w.copy[ref] = append(w.refs, ref), fast
}

// remove draws k rules from all ever installed and removes them from
// the reference and their twins from fast, one write on each: the
// differentials' rule-removal step. A drawn rule already gone is
// skipped on both sides, so a draw of only such rules publishes
// nothing. Both tables must give up the same rules with the same
// counters. It returns how many rules left.
func (w *twins) remove(t *testing.T, what string, r *rand.Rand, k int, ref *scanTable, fast *FlowTable) int {
	t.Helper()
	picks, copies := make([]*FlowEntry, k), make([]*FlowEntry, k)
	for i := range picks {
		picks[i] = w.refs[r.Intn(len(w.refs))]
		copies[i] = w.copy[picks[i]]
	}
	gen := fast.Generation()
	removed := ref.RemoveEntries(picks)
	if n := fast.RemoveEntries(copies); n != len(removed) {
		t.Fatalf("%s: RemoveEntries removed %d, reference %d", what, n, len(removed))
	}
	if moved := fast.Generation() != gen; moved != (len(removed) > 0) {
		t.Fatalf("%s: removing %d rules moved the generation: %t", what, len(removed), moved)
	}
	removedCopies := make([]*FlowEntry, len(removed))
	for i, e := range removed {
		removedCopies[i] = w.copy[e]
	}
	sameEntries(t, what, removed, removedCopies)
	return len(removed)
}
