package openflow

import (
	"fmt"
	"slices"
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
// workers need no lock; read a live entry's traffic through Stats,
// StatsByCookie or the copies Entries returns.
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	// Cookie is an opaque owner tag; the PVN deployment server uses it
	// to attribute rules to user deployments and, after a crash, to find
	// the rules no deployment owns.
	Cookie uint64

	// Counters.
	Packets int64
	Bytes   int64
}

// String implements fmt.Stringer.
func (e *FlowEntry) String() string {
	return fmt.Sprintf("prio=%d %s -> %v (pkts=%d)", e.Priority, e.Match.String(), e.Actions, atomic.LoadInt64(&e.Packets))
}

// Stats reads the entry's counters; safe while lookups update them. A
// removed entry keeps what it counted.
func (e *FlowEntry) Stats() (packets, bytes int64) {
	return atomic.LoadInt64(&e.Packets), atomic.LoadInt64(&e.Bytes)
}

// Count bills one packet of size bytes to the entry. Lookup counts the
// packets it answers; Switch.Resolve counts none, so that its caller
// bills only the packets it goes on to run: Process bills each, and a
// dataplane pipeline does not bill a packet it resolved and then
// dropped at its queue.
func (e *FlowEntry) Count(size int) {
	atomic.AddInt64(&e.Packets, 1)
	atomic.AddInt64(&e.Bytes, int64(size))
}

// missActions run on table miss: punt to the controller, the OpenFlow
// default PVN relies on.
var missActions = []Action{ToController()}

// snapshot is one immutable generation of the rule set. Readers load it
// through an atomic pointer; writers build the next one and swap it in,
// so the lookup path never blocks on the control plane.
//
// Match order is stated here once: higher priority first, and within one
// priority the earlier-installed rule first. The isolation rule (§3.3)
// makes pvnc pin every compiled rule to its owner's address, so the
// table files each rule in exactly one of three places, each in match
// order: bySrc under its exact source address, byDst under its exact
// destination address, or open when it is pinned to neither (operator
// rules, prefix-only matches). Those three are the table; no other copy
// of the rules exists. A packet can only match rules filed under its own
// source, under its own destination, or in open, so a lookup costs the
// rules on the packet's two addresses plus the unpinned ones, and a
// write copies only the leaves it touches, whatever the other
// subscribers installed.
//
// log remembers what the writes that made the last len(log) generations
// touched, oldest first (the last made gen), so a flow cache that finds
// itself behind drops only the flows those writes could have changed.
type snapshot struct {
	gen   uint64
	rules int // rules filed

	bySrc, byDst addrIndex
	open         []slot

	log []tableWrite
}

// tableWrite is what one rule write touched, as the flow caches see it:
// the addresses the rules it filed or removed are pinned to, or all
// when one of them is unpinned or they name more than writeAddrsMax
// addresses. A rule pinned to an address can only match packets from
// or to it (pinOf), so a cached decision for a flow that has neither
// of a write's addresses at either end is the one the new snapshot
// makes too.
type tableWrite struct {
	addrs []uint32
	all   bool
}

const (
	// writeLogMax is how many writes a snapshot remembers: a cache more
	// than that many generations behind empties itself. A session costs
	// two writes (deploy and teardown), and a shard that took no packet
	// meanwhile is behind by every write since.
	writeLogMax = 16
	// writeAddrsMax bounds the addresses one catch-up walks its flows
	// against; a write or catch-up touching more empties the cache. A
	// deployment pins its rules to its device's few addresses.
	writeAddrsMax = 32
)

// touch adds the address e is pinned to.
func (w *tableWrite) touch(e *FlowEntry) {
	if w.all {
		return
	}
	var a uint32
	switch pinOf(&e.Match) {
	case pinSrc:
		a = addrKey(e.Match.SrcIP)
	case pinDst:
		a = addrKey(e.Match.DstIP)
	default:
		w.all, w.addrs = true, nil
		return
	}
	if !slices.Contains(w.addrs, a) {
		if len(w.addrs) == writeAddrsMax {
			w.all, w.addrs = true, nil
			return
		}
		w.addrs = append(w.addrs, a)
	}
}

// logged returns s's log with w appended, as the next snapshot's: a
// fresh array, since s's is shared with the readers of s, of at most
// writeLogMax writes.
func (s *snapshot) logged(w tableWrite) []tableWrite {
	log := s.log
	if len(log) == writeLogMax {
		log = log[1:]
	}
	return append(log[:len(log):len(log)], w)
}

// each calls fn on every filed rule, in no particular order.
func (s *snapshot) each(fn func(slot)) {
	for _, run := range [][][]slot{s.bySrc.leaves, s.byDst.leaves, {s.open}} {
		for _, leaf := range run {
			for _, o := range leaf {
				fn(o)
			}
		}
	}
}

// match is the one function that chooses a rule: the first, in match
// order, whose Match accepts f. The three places a rule can be filed are
// filters, never verdicts — every candidate is confirmed by Matches, and
// the best of the three first matches is the rule a walk over all rules
// in match order would have stopped at.
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
// name. Rule writes (Install/InstallAll/RemoveEntries/RemoveByCookie)
// serialize on a writer mutex and publish a new snapshot atomically —
// one generation bump per call, however many rules the call carries. A
// write copies the leaves it touches and the index roots; every other
// leaf is shared with the previous snapshot. Lookups — Switch.Resolve,
// through the flow cache private to that switch — read the current
// snapshot lock-free and keep using an old generation until their next
// packet. That packet brings the cache up to date: it drops the flows
// to or from an address the missed writes' rules are pinned to, and
// everything when one of those writes filed or removed an unpinned
// rule or the snapshot's write log no longer reaches back to the
// cache's generation. So one subscriber's deployment or teardown leaves
// the other subscribers' cached flows in place.
type FlowTable struct {
	mu   sync.Mutex // serializes rule writers
	seq  uint64     // install stamps handed out; guarded by mu
	snap atomic.Pointer[snapshot]
	// leavesFiltered counts the leaves and unpinned lists RemoveEntries
	// has filtered, the work a teardown costs; guarded by mu.
	leavesFiltered int

	// The meter bank has its own lock so shaping on the packet path
	// never waits behind a rule write.
	meterMu sync.Mutex
	meters  map[string]*Meter
}

// NewFlowTable returns an empty table with an empty meter bank.
func NewFlowTable() *FlowTable {
	t := &FlowTable{meters: make(map[string]*Meter)}
	t.snap.Store(&snapshot{byDst: addrIndex{dst: true}})
	return t
}

// Generation counts the writes that changed the rule set. Each one makes
// every flow cache drop the flows its rules' addresses could match, so
// a deployment should move it once.
func (t *FlowTable) Generation() uint64 { return t.snap.Load().gen }

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return t.snap.Load().rules }

// Install adds one entry: InstallAll of one. now is ignored, as by
// InstallAll; it stays because bench/ calls Install(&fe, 0).
func (t *FlowTable) Install(e *FlowEntry, now time.Duration) {
	t.InstallAll([]*FlowEntry{e}, now)
}

// InstallAll adds the entries, in the order given, as one table write:
// the result is what that many Install calls leave, reached with one
// snapshot swap. The table keeps the entries themselves: their counters
// are live from here on. Each new entry is the youngest of its
// priority, so it goes right before the first entry of lower priority
// in its place and the order needs no re-sort. now is ignored: a rule
// carries no timeout, so its install time matters to nothing. It stays
// because bench/ calls Install(&fe, 0), which passes it on.
func (t *FlowTable) InstallAll(batch []*FlowEntry, now time.Duration) {
	if len(batch) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	next := &snapshot{gen: old.gen + 1, rules: old.rules + len(batch),
		bySrc: old.bySrc, byDst: old.byDst, open: old.open}
	var w tableWrite
	for _, e := range batch {
		w.touch(e)
		t.seq++
		s := slot{e: e, seq: t.seq}
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
	next.log = old.logged(w)
	t.snap.Store(next)
}

// remove republishes the table without the entries dead selects and
// returns them in match order. Each leaf and the unpinned list is
// filtered once: one that loses nothing is shared, one that loses
// everything vanishes. When dead selects nothing, nothing is published
// (every flow cache stays valid) and nothing is allocated. Callers hold
// t.mu.
func (t *FlowTable) remove(dead func(*FlowEntry) bool) []*FlowEntry {
	old := t.snap.Load()
	bySrc, gone := old.bySrc.filter(dead, nil)
	byDst, gone := old.byDst.filter(dead, gone)
	open, gone := filter(old.open, dead, gone)
	if len(gone) == 0 {
		return nil
	}
	t.publish(old, bySrc, byDst, open, gone)
	sort.Slice(gone, func(a, b int) bool { return gone[a].beats(gone[b]) })
	removed := make([]*FlowEntry, len(gone))
	for i, o := range gone {
		removed[i] = o.e
	}
	return removed
}

// publish swaps in the snapshot that follows old once the rules in gone
// are filtered out, leaving the given indexes and unpinned list. Callers
// hold t.mu and have removed at least one rule.
func (t *FlowTable) publish(old *snapshot, bySrc, byDst addrIndex, open, gone []slot) {
	var w tableWrite
	for _, o := range gone {
		w.touch(o.e)
	}
	t.snap.Store(&snapshot{gen: old.gen + 1, rules: old.rules - len(gone),
		bySrc: bySrc, byDst: byDst, open: open, log: old.logged(w)})
}

// RemoveEntries deletes exactly the given entries — pointers this table
// was handed by Install or InstallAll — as one table write, and returns
// how many were still filed. It is the deployment server's teardown: the
// entries' own pin keys name the only leaves that can hold them (one
// address's run may span two leaves), and the unpinned list is filtered
// only when one of them is unpinned, so the write costs the deployment's
// own rules, not the table's. Entries already gone (removed by cookie,
// or by an earlier RemoveEntries) are skipped; when none is left nothing
// is published and nothing is allocated.
func (t *FlowTable) RemoveEntries(es []*FlowEntry) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	dead := func(e *FlowEntry) bool { return slices.Contains(es, e) }
	old := t.snap.Load()
	bySrc, gone, n := old.bySrc.filterRuns(es, pinSrc, dead, nil)
	byDst, gone, m := old.byDst.filterRuns(es, pinDst, dead, gone)
	t.leavesFiltered += n + m
	open := old.open
	if slices.ContainsFunc(es, unpinned) {
		open, gone = filter(old.open, dead, gone)
		t.leavesFiltered++
	}
	if len(gone) == 0 {
		return 0
	}
	t.publish(old, bySrc, byDst, open, gone)
	return len(gone)
}

// CountFiled returns how many of the given entries the table still
// files, walking only the runs RemoveEntries would filter: what a
// deployment's manifest reports as installed.
func (t *FlowTable) CountFiled(es []*FlowEntry) int {
	s := t.snap.Load()
	n := s.bySrc.countRuns(es, pinSrc) + s.byDst.countRuns(es, pinDst)
	if slices.ContainsFunc(es, unpinned) {
		for _, o := range s.open {
			if slices.Contains(es, o.e) {
				n++
			}
		}
	}
	return n
}

// RemoveByCookie deletes all entries carrying any of the given cookies,
// as one table write, and returns how many were removed. It walks every
// rule, so it is not the teardown (that is RemoveEntries): the
// deployment server uses it to reclaim what a crash orphaned, all of
// their cookies at once.
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

// StatsByCookie sums packet/byte counters over entries with the cookie,
// the data source for usage-based billing.
func (t *FlowTable) StatsByCookie(cookie uint64) (packets, bytes int64) {
	t.snap.Load().each(func(o slot) {
		if o.e.Cookie == cookie {
			packets += atomic.LoadInt64(&o.e.Packets)
			bytes += atomic.LoadInt64(&o.e.Bytes)
		}
	})
	return packets, bytes
}

// CountByCookie returns how many installed entries carry the cookie.
func (t *FlowTable) CountByCookie(cookie uint64) int {
	n := 0
	t.snap.Load().each(func(o slot) {
		if o.e.Cookie == cookie {
			n++
		}
	})
	return n
}

// Entries returns copies of the installed rules in match order with
// their current counters. Copies, not the live entries: those keep
// changing under concurrent lookups.
func (t *FlowTable) Entries() []*FlowEntry {
	s := t.snap.Load()
	all := make([]slot, 0, s.rules)
	s.each(func(o slot) { all = append(all, o) })
	sort.Slice(all, func(a, b int) bool { return all[a].beats(all[b]) })
	copies := make([]FlowEntry, len(all))
	out := make([]*FlowEntry, len(all))
	for i, o := range all {
		e := o.e
		copies[i] = FlowEntry{
			Priority: e.Priority,
			Match:    e.Match,
			Actions:  e.Actions,
			Cookie:   e.Cookie,
			Packets:  atomic.LoadInt64(&e.Packets),
			Bytes:    atomic.LoadInt64(&e.Bytes),
		}
		out[i] = &copies[i]
	}
	return out
}

// Lookup finds the packet summary's rule in the current snapshot and
// updates the winning entry's counters — the uncached read under
// lookupScan. Misses return the table-miss actions and a nil entry.
func (t *FlowTable) Lookup(f PacketFields, size int) ([]Action, *FlowEntry) {
	e := t.snap.Load().match(f)
	if e != nil {
		e.Count(size)
	}
	return ActionsOf(e), e
}

// ActionsOf returns the actions a lookup that found e runs: e's own, or
// the table-miss punt when e is nil. A caller that carries only the
// entry Resolve returned gets its actions back from it.
func ActionsOf(e *FlowEntry) []Action {
	if e == nil {
		return missActions
	}
	return e.Actions
}

// CacheKey identifies one exact flow at one ingress port — everything a
// Match can discriminate on for IPv4 traffic, so a cached decision is
// valid for every packet of the flow within one snapshot generation.
type CacheKey struct {
	Flow   packet.Flow
	InPort uint16
}

// KeyOf peeks the cache key from raw IPv4 bytes with a minimal header
// parse: no decode, and no length or checksum checks. ok is false for
// non-IPv4 or truncated packets; those skip the flow cache (and, in the
// dataplane, all land on one shard).
func KeyOf(data []byte, inPort uint16) (key CacheKey, ok bool) {
	key.InPort = inPort
	if len(data) < 20 || data[0]>>4 != 4 {
		return key, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return key, false
	}
	f := packet.Flow{Proto: data[9]}
	copy(f.Src.Addr[:], data[12:16])
	copy(f.Dst.Addr[:], data[16:20])
	if (f.Proto == packet.IPProtoTCP || f.Proto == packet.IPProtoUDP) && len(data) >= ihl+4 {
		f.Src.Port = uint16(data[ihl])<<8 | uint16(data[ihl+1])
		f.Dst.Port = uint16(data[ihl+2])<<8 | uint16(data[ihl+3])
	}
	key.Flow = f
	return key, true
}

// describes reports whether the key's 5-tuple is the one in f.
func (k CacheKey) describes(f PacketFields) bool {
	return k.Flow.Src.Addr == f.SrcIP && k.Flow.Dst.Addr == f.DstIP && k.Flow.Proto == f.Proto &&
		k.Flow.Src.Port == f.SrcPort && k.Flow.Dst.Port == f.DstPort
}

// flowCache is an exact-match fast path over the rule snapshot, in the
// spirit of OVS's exact-match cache. Each Switch owns one and uses it
// from one goroutine at a time, so it needs no lock.
//
// It holds two generations: m, the young one, takes every miss's memo
// and every flow hit in old. A generation lasts flowCacheGen new flows
// (misses memoized into m; a flow moved up from old is not new), or
// until m holds twice that many. Then old is emptied — its flows were
// not hit for a whole generation and are counted as evictions — and the
// two swap, reusing the storage both maps grew. So a flow inserted or
// hit within its switch's last flowCacheGen new flows is always still
// held, unless more than flowCacheGen flows were moved up from old
// meanwhile; a sender minting fresh 5-tuples displaces only flows that
// idled that long; and a switch holds at most 4*flowCacheGen flows.
//
// gen is the rule generation the cache answers for. A rule write leaves
// it behind, and the cache's next lookup catches up (catchUp): it drops
// from both generations the flows the missed writes could have changed,
// or empties both, without counting either as evictions.
type flowCache struct {
	gen       uint64
	m, old    map[CacheKey]*FlowEntry
	fresh     int      // new flows m has taken this generation
	scope     []uint32 // catchUp's scratch: the missed writes' addresses
	evictions atomic.Int64
}

// flowCacheGen is how many new flows one generation takes: the reuse
// distance, counted in a switch's new flows, within which a flow's next
// packet always hits. Whoever sends the traffic picks the 5-tuples
// (spoofed source ports are free), so without a bound the cache grows
// for as long as the rules stay put. The size is 1.5 times the longest
// reuse distance pvnbench's miss rows reach (about 8.1k new flows per
// shard at 2 shards, where two producers that drift apart each carry
// half of every flow); the bench workloads' flows all return within
// 4096. A map of 12288 flows fits the same 16384 slots as one of 8192.
const flowCacheGen = 12288

func newFlowCache() *flowCache {
	return &flowCache{m: make(map[CacheKey]*FlowEntry), old: make(map[CacheKey]*FlowEntry)}
}

// insert files e under key in the young generation, ending the
// generation first when it is over: old's flows are evicted and m
// becomes old. fresh says key is a new flow rather than one moved up
// from old.
func (c *flowCache) insert(key CacheKey, e *FlowEntry, fresh bool) {
	if (fresh && c.fresh >= flowCacheGen) || len(c.m) >= 2*flowCacheGen {
		c.evictions.Add(int64(len(c.old)))
		clear(c.old)
		c.m, c.old = c.old, c.m
		c.fresh = 0
	}
	if fresh {
		c.fresh++
	}
	c.m[key] = e
}

// catchUp brings the cache from its generation to s's. It drops the
// flows from or to an address in the writes s's log holds for the
// generations in between, or empties the cache when one of them was
// unpinned, when they name more than writeAddrsMax addresses, or when
// the log does not reach back that far.
func (c *flowCache) catchUp(s *snapshot) {
	behind := s.gen - c.gen
	c.gen = s.gen
	scope, flush := c.scope[:0], behind > uint64(len(s.log))
	if !flush {
		for _, w := range s.log[len(s.log)-int(behind):] {
			if flush = w.all; flush {
				break
			}
			for _, a := range w.addrs {
				if !slices.Contains(scope, a) {
					scope = append(scope, a)
				}
			}
		}
		flush = flush || len(scope) > writeAddrsMax
	}
	c.scope = scope
	if flush {
		clear(c.m)
		clear(c.old)
		c.fresh = 0
		return
	}
	for _, m := range [2]map[CacheKey]*FlowEntry{c.m, c.old} {
		for k := range m {
			if slices.Contains(scope, addrKey(k.Flow.Src.Addr)) || slices.Contains(scope, addrKey(k.Flow.Dst.Addr)) {
				delete(m, k)
			}
		}
	}
}

// lookupCached answers from the caller's exact-match cache alone — the
// steady-state fast path, which needs only the 5-tuple key and no
// packet decode at all. cacheable is false for packets whose 5-tuple
// could not be extracted (they still match, just uncached). A hit
// returns the memoized entry and its actions, uncounted, moving a flow found in
// the old generation to the young one; a nil entry means the caller
// must extract match fields and call lookupScan.
func (t *FlowTable) lookupCached(c *flowCache, key CacheKey, cacheable bool) ([]Action, *FlowEntry) {
	if s := t.snap.Load(); c.gen != s.gen {
		c.catchUp(s)
	}
	if !cacheable {
		return nil, nil
	}
	e := c.m[key]
	if e == nil {
		if e = c.old[key]; e == nil {
			return nil, nil
		}
		delete(c.old, key)
		c.insert(key, e, false)
	}
	return e.Actions, e
}

// lookupScan is Lookup without the count, memoizing the winning entry
// in the cache.
// Callers must have tried lookupCached first (it also brings the cache
// up to the current generation).
//
// The key is what the submit path peeked from raw bytes; fields is what
// the decoder, with its length and checksum checks, saw. The answer is
// memoized only when the two describe the same 5-tuple: a frame the
// decoder rejected (or cut short of its ports) is answered from its
// fields but must not plant that answer under a key that the flow's
// well-formed packets share. The converse is not policed: a malformed
// packet whose peeked 5-tuple is already cached hits in lookupCached,
// is never decoded, and follows the flow's actions.
func (t *FlowTable) lookupScan(c *flowCache, key CacheKey, cacheable bool, fields PacketFields) ([]Action, *FlowEntry) {
	e := t.snap.Load().match(fields)
	if e != nil && cacheable && key.describes(fields) {
		c.insert(key, e, true)
	}
	return ActionsOf(e), e
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
