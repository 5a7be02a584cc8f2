package dataplane

import (
	"sync"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/tunnel"
)

const (
	latencySampleEvery = 64
	latencyReservoir   = 4096
	// stageSampleEvery is how often a shard's resolve, finish in Submit
	// or worker batch is timed stage by stage.
	stageSampleEvery = 16
)

// latencyRing is one shard's per-packet latency overwrite ring, fed by
// samples taken every latencySampleEvery packets. Once full, new
// samples overwrite the oldest slot (latNext mod size), so the
// distribution always reflects the most recent window of traffic — a
// bounded buffer that never goes stale, not a fill-once reservoir.
type latencyRing struct {
	latMu      sync.Mutex
	latSamples []float64
	latNext    uint64 // total samples ever; write index = latNext % cap
}

// sampleLatency records one end-to-end latency sample (µs granularity
// float, like netsim.Dist). Overwrite semantics: slot latNext%cap, so
// late samples always land and LatencyDist tracks the newest
// latencyReservoir samples rather than the first ones ever taken.
func (c *latencyRing) sampleLatency(d time.Duration) {
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
	Enqueued, Dropped, Processed int64
	// Batches counts worker batches, and each packet finished in Submit
	// as a batch of one; Inline counts those packets.
	Batches, Inline int64
	Bytes           int64
	// CacheHits counts processed packets the flow cache answered; a
	// packet dropped at the queue counts none.
	CacheHits int64
	// CacheEvictions counts the flows this shard's flow cache dropped
	// after a whole generation without a hit (openflow's two
	// generations of 12288 new flows each) — a steady climb means some
	// sender is minting 5-tuples faster than the rules change.
	CacheEvictions                     int64
	Outputs, Drops, Tunnels, PacketIns int64
	// ChainErrs counts packets whose middlebox chain failed on this
	// shard (a box errored or panicked fail-closed, or a broken box's
	// breaker dropped it). Always a subset of Drops.
	ChainErrs  int64
	QueueDepth int
	// Per-stage wall-clock ns. DecodeNs is the header decodes of cache
	// misses and LookupNs the rest of the resolve step, both timed in
	// Submit on each shard's every stageSampleEvery'th packet. ChainNs is
	// the finish step — Interpret (meters, rewrites, middlebox chains)
	// and the verdict hooks — timed on those of them that finish in
	// Submit and on every stageSampleEvery'th worker batch. TotalNs
	// covers every worker batch, plus stageSampleEvery times each sampled
	// resolve and each sampled finish in Submit, which stands for the
	// unsampled ones; so the stages times stageSampleEvery compare to it.
	DecodeNs, LookupNs, ChainNs, TotalNs int64
}

// Stats aggregates the pipeline's per-shard counters.
type Stats struct {
	Shards []ShardStats
	// Tunnel is the attached tunnel table's snapshot (endpoint health,
	// per-endpoint usage, failover counts); zero when Config.Tunnels is
	// unset.
	Tunnel tunnel.Stats
}

// Total sums the per-shard rows (QueueDepth sums occupancy).
func (s Stats) Total() ShardStats {
	var t ShardStats
	for i := range s.Shards {
		t.add(&s.Shards[i])
	}
	return t
}

// add folds o's counts into s. A shard's live counts are a ShardStats
// under its mu: Submit and the worker each count into a local one and
// add it there once, per packet and per batch.
func (s *ShardStats) add(o *ShardStats) {
	s.Enqueued += o.Enqueued
	s.Dropped += o.Dropped
	s.Processed += o.Processed
	s.Batches += o.Batches
	s.Inline += o.Inline
	s.Bytes += o.Bytes
	s.CacheHits += o.CacheHits
	s.CacheEvictions += o.CacheEvictions
	s.Outputs += o.Outputs
	s.Drops += o.Drops
	s.Tunnels += o.Tunnels
	s.PacketIns += o.PacketIns
	s.ChainErrs += o.ChainErrs
	s.QueueDepth += o.QueueDepth
	s.DecodeNs += o.DecodeNs
	s.LookupNs += o.LookupNs
	s.ChainNs += o.ChainNs
	s.TotalNs += o.TotalNs
}

// Stats returns a point-in-time copy of every shard's counters, plus
// the tunnel table's snapshot.
func (p *Pipeline) Stats() Stats {
	out := Stats{Shards: make([]ShardStats, len(p.shards))}
	for i, sh := range p.shards {
		sh.mu.Lock()
		out.Shards[i] = sh.counts
		sh.mu.Unlock()
		out.Shards[i].QueueDepth = sh.queue.depth()
		out.Shards[i].CacheEvictions = sh.sw.CacheEvictions()
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
		sh.latency.latMu.Lock()
		for _, v := range sh.latency.latSamples {
			d.Add(v)
		}
		sh.latency.latMu.Unlock()
	}
	return &d
}
