package openflow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/packet"
)

// FlowEntry is one rule: if Match, run Actions. Of the rules matching a
// packet the first in match order wins (see snapshot): OpenFlow's
// undefined order among equal priorities made concrete.
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

// snapshot is one immutable generation of the rule set. Readers load it
// through an atomic pointer; writers build the next one and swap it in,
// so the lookup path never blocks on the control plane.
//
// Match order is stated here once: higher priority first, and within one
// priority the earlier-installed rule first. entries holds every rule in
// that order — what Entries, the per-cookie sums and the removal sweep
// walk. Lookups do not walk it. The isolation rule (§3.3) makes pvnc pin
// every compiled rule to its owner's address, so each rule is also filed
// in exactly one of three places, each in match order: bySrc under its
// exact source address, byDst under its exact destination address, or
// open when it is pinned to neither (operator rules, prefix-only
// matches). A packet can only match rules filed under its own source,
// under its own destination, or in open, so a lookup costs the rules on
// the packet's two addresses plus the unpinned ones, whatever the other
// subscribers installed.
type snapshot struct {
	gen     uint64
	entries []*FlowEntry
	timed   int // entries carrying an idle or hard timeout

	bySrc, byDst addrIndex
	open         []slot
}

// match is the one function that chooses a rule: the first, in match
// order, whose Match accepts f. The three places a rule can be filed are
// filters, never verdicts — every candidate is confirmed by Matches, and
// the best of the three first matches is the rule a walk over entries
// would have stopped at.
func (s *snapshot) match(f PacketFields) *FlowEntry {
	best := s.bySrc.match(addrKey(f.SrcIP), f, slot{})
	best = s.byDst.match(addrKey(f.DstIP), f, best)
	for _, o := range s.open {
		if !o.beats(best) {
			break
		}
		if o.e.Match.Matches(f) {
			return o.e
		}
	}
	return best.e
}

// FlowTable is the whole match/action state of one forwarding element:
// a copy-on-write rule snapshot and the meter bank its Metered actions
// name. Rule writes (Install/InstallAll/RemoveByCookie/Expire)
// serialize on a writer mutex and publish a new snapshot atomically —
// one O(rules) copy of the ordered slice, one generation bump and so
// one flow-cache flush per call, however many rules the call carries;
// the address indexes share every leaf the write did not touch.
// Lookups — the serial Switch's Lookup and the dataplane workers'
// LookupCached / LookupScan over a worker-private FlowCache — read the
// current snapshot lock-free and keep using an old generation until
// their next packet.
type FlowTable struct {
	mu   sync.Mutex // serializes rule writers
	seq  uint64     // install stamps handed out; guarded by mu
	snap atomic.Pointer[snapshot]

	// The meter bank has its own lock so shaping on the packet path
	// never waits behind an O(rules) snapshot copy.
	meterMu sync.Mutex
	meters  map[string]*Meter
}

// NewFlowTable returns an empty table with an empty meter bank.
func NewFlowTable() *FlowTable {
	t := &FlowTable{meters: make(map[string]*Meter)}
	t.snap.Store(&snapshot{byDst: addrIndex{dst: true}})
	return t
}

// Generation counts the writes that changed the rule set. Each one costs
// every flow cache a flush, so a deployment should move it once.
func (t *FlowTable) Generation() uint64 { return t.snap.Load().gen }

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return len(t.snap.Load().entries) }

// Install adds one entry at the given simulated time: InstallAll of one.
func (t *FlowTable) Install(e *FlowEntry, now time.Duration) {
	t.InstallAll([]*FlowEntry{e}, now)
}

// InstallAll adds the entries, in the order given, as one table write:
// the result is what that many Install calls leave, reached with one
// snapshot swap. The table keeps the entries themselves: their counters
// are live from here on. Each new entry is the youngest of its
// priority, so it goes right before the first entry of lower priority
// and the order needs no re-sort.
func (t *FlowTable) InstallAll(batch []*FlowEntry, now time.Duration) {
	if len(batch) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	next := &snapshot{gen: old.gen + 1, timed: old.timed, bySrc: old.bySrc, byDst: old.byDst, open: old.open}
	fresh := make([]slot, len(batch))
	for i, e := range batch {
		e.installedAt = now
		atomic.StoreInt64(&e.lastUsed, int64(now))
		if e.timed() {
			next.timed++
		}
		t.seq++
		s := slot{e: e, seq: t.seq}
		fresh[i] = s
		switch pinOf(&e.Match) {
		case pinSrc:
			next.bySrc = next.bySrc.with(s)
		case pinDst:
			next.byDst = next.byDst.with(s)
		default:
			at := sort.Search(len(next.open), func(n int) bool { return next.open[n].e.Priority < e.Priority })
			next.open = splice(next.open, at, s)
		}
	}
	// Merge into the ordered slice: the batch by descending priority
	// (stable, so install order survives within one), each entry landing
	// behind what is left of the old entries of its priority.
	sort.SliceStable(fresh, func(a, b int) bool { return fresh[a].e.Priority > fresh[b].e.Priority })
	next.entries = make([]*FlowEntry, 0, len(old.entries)+len(fresh))
	rest := old.entries
	for _, s := range fresh {
		at := sort.Search(len(rest), func(n int) bool { return rest[n].Priority < s.e.Priority })
		next.entries = append(append(next.entries, rest[:at]...), s.e)
		rest = rest[at:]
	}
	next.entries = append(next.entries, rest...)
	t.snap.Store(next)
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
	var removed, src, dst, unpinned []*FlowEntry
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
		switch pinOf(&e.Match) {
		case pinSrc:
			src = append(src, e)
		case pinDst:
			dst = append(dst, e)
		default:
			unpinned = append(unpinned, e)
		}
	}
	next := &snapshot{gen: old.gen + 1, entries: kept, timed: timed,
		bySrc: old.bySrc.without(src), byDst: old.byDst.without(dst), open: old.open}
	if len(unpinned) > 0 {
		next.open, _ = strain(old.open, unpinned) // both in match order
	}
	t.snap.Store(next)
	return removed
}

// RemoveByCookie deletes all entries carrying any of the given cookies,
// as one table write, and returns how many were removed. The deployment
// server uses this for PVN teardown (one cookie) and for reclaiming
// what a crash orphaned (all of their cookies at once).
func (t *FlowTable) RemoveByCookie(cookies ...uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(cookies) == 1 {
		cookie := cookies[0]
		return len(t.remove(func(e *FlowEntry) bool { return e.Cookie == cookie }))
	}
	set := make(map[uint64]struct{}, len(cookies))
	for _, c := range cookies {
		set[c] = struct{}{}
	}
	return len(t.remove(func(e *FlowEntry) bool { _, ok := set[e.Cookie]; return ok }))
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

// Lookup finds the packet summary's rule in the current snapshot and
// updates the winning entry's counters — the scalar reference read the
// serial Switch uses. Misses return the table-miss actions and a nil
// entry.
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

// describes reports whether the key's 5-tuple is the one in f.
func (k CacheKey) describes(f PacketFields) bool {
	return k.Flow.Src.Addr == f.SrcIP && k.Flow.Dst.Addr == f.DstIP && k.Flow.Proto == f.Proto &&
		k.Flow.Src.Port == f.SrcPort && k.Flow.Dst.Port == f.DstPort
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

// LookupScan is Lookup — the same read the serial Switch runs —
// memoizing the winning entry in the cache. Callers must have tried
// LookupCached first (it also syncs the cache generation).
//
// The key is what the submit path peeked from raw bytes; fields is what
// the decoder, with its length and checksum checks, saw. The answer is
// memoized only when the two describe the same 5-tuple: a frame the
// decoder rejected (or cut short of its ports) is answered from its
// fields but must not plant that answer under a key that the flow's
// well-formed packets share. The converse is not policed: a malformed
// packet whose peeked 5-tuple is already cached hits in LookupCached,
// is never decoded, and follows the flow's actions.
func (t *FlowTable) LookupScan(c *FlowCache, key CacheKey, cacheable bool, fields PacketFields, size int, now time.Duration) []Action {
	actions, e := t.Lookup(fields, size, now)
	if e != nil && cacheable && key.describes(fields) {
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
