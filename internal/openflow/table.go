package openflow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/packet"
)

// FlowEntry is one rule: if Match, run Actions. Higher Priority wins;
// among equal priorities the earliest-installed entry wins
// (deterministic, like OpenFlow's undefined-order made concrete).
//
// It is a plain struct and may be copied freely before it is installed.
// Once installed, every field but the counters is immutable and the
// counters are only touched through sync/atomic, so lookups from many
// workers need no lock; read a live entry's traffic through
// StatsByCookie or the copies Entries returns.
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	// Cookie is an opaque owner tag; the PVN deployment server uses it
	// to attribute rules to user deployments and tear them down.
	Cookie uint64
	// IdleTimeout evicts the entry when unused this long; 0 = never.
	IdleTimeout time.Duration
	// HardTimeout evicts the entry this long after install; 0 = never.
	HardTimeout time.Duration

	// Counters.
	Packets int64
	Bytes   int64

	installedAt time.Duration
	lastUsed    int64 // time.Duration ns
}

// String implements fmt.Stringer.
func (e *FlowEntry) String() string {
	return fmt.Sprintf("prio=%d %s -> %v (pkts=%d)", e.Priority, e.Match.String(), e.Actions, atomic.LoadInt64(&e.Packets))
}

func (e *FlowEntry) timed() bool { return e.IdleTimeout > 0 || e.HardTimeout > 0 }

func (e *FlowEntry) expired(now time.Duration) bool {
	if e.HardTimeout > 0 && now-e.installedAt >= e.HardTimeout {
		return true
	}
	return e.IdleTimeout > 0 && now-time.Duration(atomic.LoadInt64(&e.lastUsed)) >= e.IdleTimeout
}

func (e *FlowEntry) count(size int, now time.Duration) {
	atomic.AddInt64(&e.Packets, 1)
	atomic.AddInt64(&e.Bytes, int64(size))
	atomic.StoreInt64(&e.lastUsed, int64(now))
}

// missActions run on table miss: punt to the controller, the OpenFlow
// default PVN relies on.
var missActions = []Action{ToController()}

// snapshot is one immutable generation of the rule set in match order
// (priority desc, install order within a priority). Readers load it
// through an atomic pointer; writers build a fresh copy and swap it in,
// so the lookup path never blocks on the control plane.
type snapshot struct {
	gen     uint64
	entries []*FlowEntry
	timed   int // entries carrying an idle or hard timeout
}

func (s *snapshot) match(f PacketFields) *FlowEntry {
	for _, e := range s.entries {
		if e.Match.Matches(f) {
			return e
		}
	}
	return nil
}

// FlowTable is the whole match/action state of one forwarding element:
// a copy-on-write rule snapshot and the meter bank its Metered actions
// name. Rule writes (Install/RemoveByCookie/Expire) serialize on a
// writer mutex and publish a new snapshot atomically; lookups — the
// serial Switch's Lookup and the dataplane workers' LookupCached /
// LookupScan over a worker-private FlowCache — read the current
// snapshot lock-free and keep using an old generation until their next
// packet.
type FlowTable struct {
	mu   sync.Mutex // serializes rule writers
	snap atomic.Pointer[snapshot]

	// The meter bank has its own lock so shaping on the packet path
	// never waits behind an O(rules) snapshot copy.
	meterMu sync.Mutex
	meters  map[string]*Meter
}

// NewFlowTable returns an empty table with an empty meter bank.
func NewFlowTable() *FlowTable {
	t := &FlowTable{meters: make(map[string]*Meter)}
	t.snap.Store(&snapshot{})
	return t
}

// publish installs a new snapshot; callers hold t.mu.
func (t *FlowTable) publish(entries []*FlowEntry, timed int) {
	t.snap.Store(&snapshot{gen: t.snap.Load().gen + 1, entries: entries, timed: timed})
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return len(t.snap.Load().entries) }

// Install adds an entry at the given simulated time. The table keeps e
// itself: its counters are live from here on. A new entry is the
// youngest of its priority, so it goes right before the first entry of
// lower priority and the order needs no re-sort.
func (t *FlowTable) Install(e *FlowEntry, now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.installedAt = now
	atomic.StoreInt64(&e.lastUsed, int64(now))
	old := t.snap.Load()
	at := sort.Search(len(old.entries), func(i int) bool { return old.entries[i].Priority < e.Priority })
	entries := make([]*FlowEntry, len(old.entries)+1)
	copy(entries, old.entries[:at])
	entries[at] = e
	copy(entries[at+1:], old.entries[at:])
	timed := old.timed
	if e.timed() {
		timed++
	}
	t.publish(entries, timed)
}

// remove republishes the table without the entries dead selects and
// returns them; when it selects none, nothing is published (every flow
// cache stays valid) and nothing is allocated. Callers hold t.mu.
func (t *FlowTable) remove(dead func(*FlowEntry) bool) []*FlowEntry {
	old := t.snap.Load()
	first := 0
	for first < len(old.entries) && !dead(old.entries[first]) {
		first++
	}
	if first == len(old.entries) {
		return nil
	}
	kept := make([]*FlowEntry, first, len(old.entries)-1)
	copy(kept, old.entries[:first])
	var removed []*FlowEntry
	timed := old.timed
	for _, e := range old.entries[first:] {
		if !dead(e) {
			kept = append(kept, e)
			continue
		}
		removed = append(removed, e)
		if e.timed() {
			timed--
		}
	}
	t.publish(kept, timed)
	return removed
}

// RemoveByCookie deletes all entries with the given cookie and returns
// how many were removed. The deployment server uses this for PVN
// teardown.
func (t *FlowTable) RemoveByCookie(cookie uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.remove(func(e *FlowEntry) bool { return e.Cookie == cookie }))
}

// Expire removes entries whose idle or hard timeout has passed and
// returns them; their counters are final once lookups still holding the
// previous snapshot finish. With no timed entry installed it is one
// atomic load, so callers may run it per packet.
func (t *FlowTable) Expire(now time.Duration) []*FlowEntry {
	if t.snap.Load().timed == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.remove(func(e *FlowEntry) bool { return e.expired(now) })
}

// StatsByCookie sums packet/byte counters over entries with the cookie,
// the data source for usage-based billing.
func (t *FlowTable) StatsByCookie(cookie uint64) (packets, bytes int64) {
	for _, e := range t.snap.Load().entries {
		if e.Cookie == cookie {
			packets += atomic.LoadInt64(&e.Packets)
			bytes += atomic.LoadInt64(&e.Bytes)
		}
	}
	return packets, bytes
}

// CountByCookie returns how many installed entries carry the cookie.
func (t *FlowTable) CountByCookie(cookie uint64) int {
	n := 0
	for _, e := range t.snap.Load().entries {
		if e.Cookie == cookie {
			n++
		}
	}
	return n
}

// Entries returns copies of the installed rules in match order with
// their current counters. Copies, not the live entries: those keep
// changing under concurrent lookups.
func (t *FlowTable) Entries() []*FlowEntry {
	entries := t.snap.Load().entries
	copies := make([]FlowEntry, len(entries))
	out := make([]*FlowEntry, len(entries))
	for i, e := range entries {
		copies[i] = FlowEntry{
			Priority:    e.Priority,
			Match:       e.Match,
			Actions:     e.Actions,
			Cookie:      e.Cookie,
			IdleTimeout: e.IdleTimeout,
			HardTimeout: e.HardTimeout,
			Packets:     atomic.LoadInt64(&e.Packets),
			Bytes:       atomic.LoadInt64(&e.Bytes),
		}
		out[i] = &copies[i]
	}
	return out
}

// Lookup scans the current snapshot for the packet summary and updates
// the winning entry's counters — the scalar reference read the serial
// Switch uses. Misses return the table-miss actions and a nil entry.
func (t *FlowTable) Lookup(f PacketFields, size int, now time.Duration) ([]Action, *FlowEntry) {
	e := t.snap.Load().match(f)
	if e == nil {
		return missActions, nil
	}
	e.count(size, now)
	return e.Actions, e
}

// CacheKey identifies one exact flow at one ingress port — everything a
// Match can discriminate on for IPv4 traffic, so a cached decision is
// valid for every packet of the flow within one snapshot generation.
type CacheKey struct {
	Flow   packet.Flow
	InPort uint16
}

// FlowCache is an exact-match fast path over the rule snapshot, in the
// spirit of OVS's flow cache. It is owned by exactly one goroutine (a
// dataplane worker) and therefore needs no lock; a generation bump (any
// rule update or expiry) invalidates it wholesale.
type FlowCache struct {
	gen     uint64
	m       map[CacheKey]*FlowEntry
	flushes atomic.Int64
}

// flowCacheMax bounds one FlowCache. Whoever sends the traffic picks the
// 5-tuples (spoofed source ports are free), so without a bound the map
// grows for as long as the rules stay put. A full cache is flushed
// wholesale, like a generation bump: live flows pay one more scan each.
const flowCacheMax = 1 << 18

// NewFlowCache returns an empty cache.
func NewFlowCache() *FlowCache { return &FlowCache{m: make(map[CacheKey]*FlowEntry)} }

// Flushes reports how many times the cache overflowed its bound and was
// emptied. Safe to call from any goroutine.
func (c *FlowCache) Flushes() int64 { return c.flushes.Load() }

// LookupCached answers from the caller's exact-match cache alone — the
// steady-state fast path, which needs only the 5-tuple key and no
// packet decode at all. cacheable is false for packets whose 5-tuple
// could not be extracted (they still match, just uncached). A false
// return means the caller must extract match fields and call
// LookupScan.
func (t *FlowTable) LookupCached(c *FlowCache, key CacheKey, cacheable bool, size int, now time.Duration) ([]Action, bool) {
	if gen := t.snap.Load().gen; c.gen != gen {
		c.gen = gen
		clear(c.m)
	}
	if !cacheable {
		return nil, false
	}
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	e.count(size, now)
	return e.Actions, true
}

// LookupScan is Lookup — the same scan the serial Switch runs —
// memoizing the winning entry in the cache. Callers must have tried
// LookupCached first (it also syncs the cache generation).
func (t *FlowTable) LookupScan(c *FlowCache, key CacheKey, cacheable bool, fields PacketFields, size int, now time.Duration) []Action {
	actions, e := t.Lookup(fields, size, now)
	if e != nil && cacheable {
		if len(c.m) >= flowCacheMax {
			clear(c.m)
			c.flushes.Add(1)
		}
		c.m[key] = e
	}
	return actions
}

// AddMeter installs a named meter, replacing any earlier one with the
// id. The table owns the meter from here on; read it back with Meter.
func (t *FlowTable) AddMeter(id string, m Meter) {
	t.meterMu.Lock()
	t.meters[id] = &m
	t.meterMu.Unlock()
}

// RemoveMeter uninstalls a named meter. Flow rules still referencing it
// fall back to unmetered forwarding (Shape treats a missing meter as
// pass-through), so removal order vs. rule removal does not matter.
func (t *FlowTable) RemoveMeter(id string) {
	t.meterMu.Lock()
	delete(t.meters, id)
	t.meterMu.Unlock()
}

// Shape charges size bytes to the named meter and returns the delay the
// packet must wait to conform. An unknown meter is a no-op: fail-open,
// no rate constraint.
func (t *FlowTable) Shape(id string, now time.Duration, size int) time.Duration {
	var d time.Duration
	t.meterMu.Lock()
	if m := t.meters[id]; m != nil {
		d = m.Shape(now, size)
	}
	t.meterMu.Unlock()
	return d
}

// Meter returns a copy of the named meter with its current counters.
func (t *FlowTable) Meter(id string) (Meter, bool) {
	t.meterMu.Lock()
	defer t.meterMu.Unlock()
	m := t.meters[id]
	if m == nil {
		return Meter{}, false
	}
	return *m, true
}

// MeterIDs returns the installed meter ids, sorted.
func (t *FlowTable) MeterIDs() []string {
	t.meterMu.Lock()
	ids := make([]string, 0, len(t.meters))
	for id := range t.meters {
		ids = append(ids, id)
	}
	t.meterMu.Unlock()
	sort.Strings(ids)
	return ids
}
