package openflow

import (
	"sort"
	"time"
)

// scanTable is the rule table as it was before the address index — one
// slice in match order, looked up by walking it from the top — kept as
// the reference the indexed FlowTable is held to. It shares nothing with
// the index but FlowEntry and Match.Matches. Single-goroutine.
type scanTable struct{ entries []*FlowEntry }

func (r *scanTable) Install(e *FlowEntry, now time.Duration) {
	e.installedAt, e.lastUsed = now, int64(now)
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

func (r *scanTable) Expire(now time.Duration) []*FlowEntry {
	return r.remove(func(e *FlowEntry) bool { return e.expired(now) })
}

func (r *scanTable) Lookup(f PacketFields, size int, now time.Duration) ([]Action, *FlowEntry) {
	for _, e := range r.entries {
		if e.Match.Matches(f) {
			e.count(size, now)
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
