package dataplane

import (
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/tunnel"
)

// shardCounters is the hot-path metrics block for one shard. Producers
// touch the enqueue side; exactly one worker touches the rest, but
// everything is atomic so Stats can be read at any time (and so the
// race detector stays happy). The worker does NOT add to these per
// packet: it accumulates a batch in plain localCounters and flushes
// once per batch (see worker.go), so the atomic cost is amortized by
// the batch size. The pad keeps adjacent shards' counters off the same
// cache line.
type shardCounters struct {
	enqueued  atomic.Int64
	dropped   atomic.Int64 // queue overflow drops
	processed atomic.Int64
	bytes     atomic.Int64
	batches   atomic.Int64
	cacheHits atomic.Int64

	// Verdict counts.
	outputs   atomic.Int64
	drops     atomic.Int64 // action/policy drops
	tunnels   atomic.Int64
	packetIns atomic.Int64
	chainErrs atomic.Int64 // middlebox chain failures (box error/panic, broken fail-closed)

	// Cumulative per-stage wall-clock nanoseconds. totalNs covers every
	// batch; the per-stage split (decode/lookup/chain) is measured on
	// every stageSampleEvery'th batch only, so the steady state pays two
	// clock reads per batch. Compare stage counters to each other for
	// shares; scale by stageSampleEvery to estimate absolute time.
	decodeNs atomic.Int64
	lookupNs atomic.Int64
	chainNs  atomic.Int64
	totalNs  atomic.Int64

	// Per-packet latency overwrite ring, fed by samples taken every
	// latencySampleEvery packets. Once full, new samples overwrite the
	// oldest slot (latNext mod size), so the distribution always
	// reflects the most recent window of traffic — a bounded buffer
	// that never goes stale, not a fill-once reservoir.
	latMu      sync.Mutex
	latSamples []float64
	latNext    uint64 // total samples ever; write index = latNext % cap

	_ [40]byte // pad to its own cache line region
}

const (
	latencySampleEvery = 64
	latencyReservoir   = 4096
	// stageSampleEvery is how often a batch carries full per-stage
	// timestamps instead of just start/end.
	stageSampleEvery = 16
)

// sampleLatency records one end-to-end latency sample (µs granularity
// float, like netsim.Dist). Overwrite semantics: slot latNext%cap, so
// late samples always land and LatencyDist tracks the newest
// latencyReservoir samples rather than the first ones ever taken.
func (c *shardCounters) sampleLatency(d time.Duration) {
	c.latMu.Lock()
	if cap(c.latSamples) < latencyReservoir {
		// One-time arena; after this the ring never allocates.
		c.latSamples = make([]float64, 0, latencyReservoir)
	}
	v := float64(d) / float64(time.Microsecond)
	if len(c.latSamples) < latencyReservoir {
		c.latSamples = append(c.latSamples, v)
	} else {
		c.latSamples[c.latNext%latencyReservoir] = v
	}
	c.latNext++
	c.latMu.Unlock()
}

// localCounters is one batch's worth of hot-path counters in plain
// locals. The worker accumulates into these during a batch and calls
// flush exactly once at batch end — turning dozens of per-packet atomic
// RMWs into a handful per batch.
type localCounters struct {
	processed, bytes, cacheHits          int64
	outputs, drops, tunnels, packetIns   int64
	chainErrs                            int64
	decodeNs, lookupNs, chainNs, totalNs int64
}

// flush pushes the accumulated batch counters into the shard atomics.
// Zero fields still pay an atomic add only when nonzero.
func (l *localCounters) flush(c *shardCounters) {
	c.processed.Add(l.processed)
	c.bytes.Add(l.bytes)
	if l.cacheHits != 0 {
		c.cacheHits.Add(l.cacheHits)
	}
	if l.outputs != 0 {
		c.outputs.Add(l.outputs)
	}
	if l.drops != 0 {
		c.drops.Add(l.drops)
	}
	if l.tunnels != 0 {
		c.tunnels.Add(l.tunnels)
	}
	if l.packetIns != 0 {
		c.packetIns.Add(l.packetIns)
	}
	if l.chainErrs != 0 {
		c.chainErrs.Add(l.chainErrs)
	}
	if l.decodeNs != 0 {
		c.decodeNs.Add(l.decodeNs)
	}
	if l.lookupNs != 0 {
		c.lookupNs.Add(l.lookupNs)
	}
	if l.chainNs != 0 {
		c.chainNs.Add(l.chainNs)
	}
	c.totalNs.Add(l.totalNs)
}

// ShardStats is a point-in-time copy of one shard's counters.
//
// Accounting invariant (DropNewest and Block): Enqueued counts every
// packet Submit dispatched at this shard — admitted or not — and Dropped
// counts every dispatched packet that will never be processed (tail-drop
// rejections, submits after close). At quiescence therefore:
//
//	Enqueued == Processed + Dropped + QueueDepth
//
// Tests pin this per policy.
type ShardStats struct {
	Enqueued, Dropped, Processed, Batches int64
	Bytes                                 int64
	CacheHits                             int64
	// CacheFlushes counts the times this shard's flow cache hit its
	// bound and was emptied — nonzero means some sender is minting
	// 5-tuples faster than the rules change.
	CacheFlushes                       int64
	Outputs, Drops, Tunnels, PacketIns int64
	// ChainErrs counts packets whose middlebox chain failed on this
	// shard (a box errored or panicked fail-closed, or a broken box's
	// breaker dropped it). Always a subset of Drops.
	ChainErrs                            int64
	QueueDepth                           int
	DecodeNs, LookupNs, ChainNs, TotalNs int64
}

// Stats aggregates the pipeline's per-shard counters.
type Stats struct {
	Shards []ShardStats
	// Chain aggregates supervision counters (panics contained, breaker
	// opens, restarts, bypasses, …) from the chain executor — the
	// middlebox runtime's verdict stream surfaced next to the packet
	// counters it explains.
	Chain middlebox.SupervisorStats
	// Tunnel is the attached tunnel table's snapshot (endpoint health,
	// per-endpoint usage, failover counts); zero when Config.Tunnels is
	// unset.
	Tunnel tunnel.Stats
}

// Total sums the per-shard rows (QueueDepth sums occupancy).
func (s Stats) Total() ShardStats {
	var t ShardStats
	for _, sh := range s.Shards {
		t.Enqueued += sh.Enqueued
		t.Dropped += sh.Dropped
		t.Processed += sh.Processed
		t.Batches += sh.Batches
		t.Bytes += sh.Bytes
		t.CacheHits += sh.CacheHits
		t.CacheFlushes += sh.CacheFlushes
		t.Outputs += sh.Outputs
		t.Drops += sh.Drops
		t.Tunnels += sh.Tunnels
		t.PacketIns += sh.PacketIns
		t.ChainErrs += sh.ChainErrs
		t.QueueDepth += sh.QueueDepth
		t.DecodeNs += sh.DecodeNs
		t.LookupNs += sh.LookupNs
		t.ChainNs += sh.ChainNs
		t.TotalNs += sh.TotalNs
	}
	return t
}

func (c *shardCounters) snapshot(depth int) ShardStats {
	return ShardStats{
		Enqueued:   c.enqueued.Load(),
		Dropped:    c.dropped.Load(),
		Processed:  c.processed.Load(),
		Batches:    c.batches.Load(),
		Bytes:      c.bytes.Load(),
		CacheHits:  c.cacheHits.Load(),
		Outputs:    c.outputs.Load(),
		Drops:      c.drops.Load(),
		Tunnels:    c.tunnels.Load(),
		PacketIns:  c.packetIns.Load(),
		ChainErrs:  c.chainErrs.Load(),
		QueueDepth: depth,
		DecodeNs:   c.decodeNs.Load(),
		LookupNs:   c.lookupNs.Load(),
		ChainNs:    c.chainNs.Load(),
		TotalNs:    c.totalNs.Load(),
	}
}

// chainSupervisor is implemented by supervised chain executors
// (middlebox.Runtime).
type chainSupervisor interface {
	SupervisorStats() middlebox.SupervisorStats
}

// Stats returns a point-in-time copy of every shard's counters, plus
// the supervision counters of the chain executor.
func (p *Pipeline) Stats() Stats {
	out := Stats{Shards: make([]ShardStats, len(p.shards))}
	for i, sh := range p.shards {
		out.Shards[i] = sh.counters.snapshot(sh.queue.depth())
		out.Shards[i].CacheFlushes = sh.cache.Flushes()
	}
	if sup, ok := p.cfg.Chains.(chainSupervisor); ok {
		out.Chain = sup.SupervisorStats()
	}
	if p.cfg.Tunnels != nil {
		out.Tunnel = p.cfg.Tunnels.Stats()
	}
	return out
}

// LatencyDist merges the sampled per-packet pipeline latencies (queue
// wait + processing, in microseconds) of all shards into a netsim.Dist,
// the summary type every experiment reports with. Each shard
// contributes its newest latencyReservoir samples (overwrite ring), so
// long-run latency shifts are visible here, not just startup traffic.
func (p *Pipeline) LatencyDist() *netsim.Dist {
	var d netsim.Dist
	for _, sh := range p.shards {
		sh.counters.latMu.Lock()
		for _, v := range sh.counters.latSamples {
			d.Add(v)
		}
		sh.counters.latMu.Unlock()
	}
	return &d
}
