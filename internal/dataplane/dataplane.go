// Package dataplane is the PVN host's packet pipeline: the per-packet
// path openflow.Switch.Process runs inline (Switch.Resolve's flow cache
// or header decode and lookup → FlowTable.Interpret → output/tunnel/
// controller), with a sharded worker pool behind it for middlebox chain
// work, so one edge host can spread the expensive packets over every
// core the access hardware has (ROADMAP: "heavy traffic from millions
// of users, as fast as the hardware allows"; paper §3.3 cites
// ClickOS-class per-packet budgets that leave no room for a global
// lock). Each shard is an openflow.Switch over the pipeline's table, so
// Submit and Switch.Process share one resolve step and one action
// interpreter; the pipeline adds the rings, the batching and the hooks.
//
// Architecture:
//
//		Submit ─hash(5-tuple)─▶ shard's Switch.Resolve ─┬─ no chain or cache miss, shard idle ─▶ finish ─▶ hooks
//		        (per-shard mutex, COW rule snapshot)     │                                  (on the Submit caller)
//		                                                 └─ cached chain flow, or shard busy ─▶ bounded ring ─batch─▶ worker: finish ─▶ hooks
//		                                                                                   backpressure/drop policy
//
//	  - Submit resolves every packet itself: the shard's flow cache, or on
//	    a miss a header decode and a rule scan. A per-shard mutex guards
//	    that switch and is held around Resolve only, never across
//	    Interpret or a hook, so a hook may Submit again.
//	  - A packet whose actions name no middlebox chain, or a flow's first
//	    packet (a flow-cache miss), finishes on the submitting goroutine
//	    (finish: bill the rule → Interpret → verdict → hook → counters)
//	    while the pipeline runs and its shard has nothing queued or in its
//	    worker. Every other packet — a cached flow's chain work — is
//	    queued with its resolution, and the shard's worker only finishes
//	    it, resolving it again first if a rule write came after its
//	    Submit. Both paths run the one finish function.
//	  - Packets are partitioned by the symmetric packet.Flow hash, so both
//	    directions of a conversation land on one shard, and a shard
//	    finishes its packets in Submit order: a packet finishes in Submit
//	    only behind none of its shard's queued ones. The shard's flow cache
//	    holds two generations of 12288 new flows each, so its memory does
//	    not grow with the flows it has seen; ShardStats.CacheEvictions
//	    counts the idle flows it drops.
//	  - Rule and meter state lives in an openflow.FlowTable: an
//	    atomically-published copy-on-write snapshot written by the
//	    control plane (deployserver flow mods) and read lock-free through
//	    each shard switch's private flow cache.
//	  - Workers pull fixed-size batches from their ring to amortize queue
//	    synchronization, and recycle packet buffers through a sync.Pool.
//	  - Queues are bounded; the DropPolicy decides whether overload tail
//	    drops or blocks the producer. Memory stays bounded either way.
//
// Middlebox chains: the one openflow.ChainExecutor is invoked
// concurrently from worker goroutines and submitters, one ExecuteChain
// call (made by Interpret) per Middlebox action. A middlebox.Runtime locks itself per
// owner, so workers serialize only where their packets belong to the
// same owner.
package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/openflow"
	"pvn/internal/tunnel"
)

// Config parameterizes a Pipeline. The zero value is usable: chain-free
// packets and flows' first packets finish in Submit, and cached flows'
// chain work goes to GOMAXPROCS shards with batch 32, queue depth 1024
// and tail drop; no hooks.
//
// Shards, BatchSize, QueueDepth and Policy govern queued packets only:
// a cached flow's packets whose actions run a middlebox chain, and any
// packet that arrives while its shard still holds queued ones (or
// before Start).
type Config struct {
	// Shards is the number of queue+worker pairs (one worker owns one
	// shard). Zero means GOMAXPROCS.
	Shards int
	// BatchSize is how many packets a worker drains per queue
	// acquisition. Zero means 32.
	BatchSize int
	// QueueDepth bounds each shard's ring, in packets. Zero means 1024.
	QueueDepth int
	// Policy is the overload behaviour. Default DropNewest.
	Policy DropPolicy

	// Chains executes Middlebox actions, one ExecuteChain call per
	// packet, for every shard; it MUST be goroutine-safe (a
	// middlebox.Runtime is, and runs different owners' chains in
	// parallel). Nil makes middlebox actions drops, like openflow.Switch.
	Chains openflow.ChainExecutor

	// Tunnels, when set, makes tunnel dispatch health-aware: each
	// tunnel-action packet is routed through the table (Table.Route), so
	// flows pinned to a probed-dead endpoint fail over to the best live
	// one before OnTunnel sees them. The table is safe under concurrent
	// workers; its failover counters surface in Stats().Tunnel.
	Tunnels *tunnel.Table

	// OnOutput receives forwarded packets. The data slice is only valid
	// for the duration of the call (the buffer is recycled after).
	OnOutput func(port uint16, data []byte)
	// OnTunnel receives packets dispatched to a named tunnel (after any
	// Tunnels failover rerouting).
	OnTunnel func(name string, data []byte)
	// OnController receives table-miss punts.
	OnController func(inPort uint16, data []byte)
	// All three hooks are called concurrently: on the Submit caller's
	// goroutine for a packet finished there (before Submit returns, with
	// the caller's own bytes), and on a worker goroutine for a queued
	// one. A hook may call Submit; it must not call Stop.

	// Now supplies simulated time for meters; nil means time zero, like
	// openflow.NewSwitch.
	Now func() time.Duration
}

// shard is one queue + worker + privately-owned flow state: the
// openflow.Switch over the pipeline's table whose flow cache and
// decoder the shard's submitters share under mu.
type shard struct {
	id    int
	queue *ring
	// mu guards sw, counts and finishing. Submit holds it around Resolve
	// only, never across Interpret or a hook, so a hook that Submits
	// cannot deadlock.
	mu sync.Mutex
	sw *openflow.Switch
	// counts is the shard's live ShardStats, less QueueDepth and
	// CacheEvictions, which Stats reads where they live.
	counts ShardStats
	// finishing counts the finishes running in Submit; Stop waits for it
	// to empty, so no hook runs after Stop returns.
	finishing int
	// pending counts the shard's packets queued or in its worker. A
	// packet finishes in Submit only while it is zero, so it never
	// overtakes one of them.
	pending atomic.Int64
	latency latencyRing
}

// Pipeline is the running dataplane: N shards fed by Submit, which
// finishes chain-free packets itself and queues the rest to the shards'
// workers.
type Pipeline struct {
	cfg    Config
	table  *openflow.FlowTable
	shards []*shard

	bufPool sync.Pool

	// inFlight counts queued packets not yet retired. Drain parks on
	// drained while drainers says it waits; retire wakes it only then,
	// so a batch with no drainer pays one atomic load for it.
	inFlight atomic.Int64
	drainers atomic.Int32
	drainMu  sync.Mutex
	drained  sync.Cond

	// running is true between Start and Stop: only then may a packet
	// finish in Submit.
	running atomic.Bool

	wg sync.WaitGroup
	// lifeMu guards started/stopped: Start and Stop are idempotent and
	// safe to call concurrently (a Stop racing a Start either runs after
	// the workers launch and shuts them down, or marks the pipeline
	// stopped so the Start becomes a no-op).
	lifeMu  sync.Mutex
	started bool
	stopped bool
}

// New builds a pipeline over its own flow table. Install rules and
// meters through Table().
func New(cfg Config) *Pipeline {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Duration { return 0 }
	}
	p := &Pipeline{cfg: cfg, table: openflow.NewFlowTable()}
	p.drained.L = &p.drainMu
	p.bufPool.New = func() any { b := make([]byte, 0, 2048); return &b }
	for i := 0; i < cfg.Shards; i++ {
		p.shards = append(p.shards, &shard{id: i, queue: newRing(cfg.QueueDepth, cfg.Policy),
			sw: openflow.NewSwitchOn("shard", p.table, cfg.Chains, cfg.Now)})
	}
	return p
}

// Table exposes the rule and meter state for control-plane updates.
func (p *Pipeline) Table() *openflow.FlowTable { return p.table }

// NewShardedTable returns the table type pipelines run over. It
// survives only as the name bench/ calls; use openflow.NewFlowTable.
func NewShardedTable() *openflow.FlowTable { return openflow.NewFlowTable() }

// Start launches one worker per shard and lets chain-free packets
// finish in Submit. It is idempotent and safe to call concurrently with
// Stop; once the pipeline has been stopped, Start is a no-op (the
// queues are closed — the pipeline cannot be restarted).
func (p *Pipeline) Start() {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	if p.started || p.stopped {
		return
	}
	p.started = true
	for _, sh := range p.shards {
		p.wg.Add(1)
		go p.work(sh)
	}
	p.running.Store(true)
}

// Stop ends finishing in Submit, closes the queues, lets workers drain
// what is already enqueued, and waits for them and for every finish
// still running in a Submit to return: no hook runs after Stop has
// returned. Idempotent: further Stops return immediately, and a Start
// racing the first Stop either wins (its workers are then drained and
// joined here) or observes stopped and does nothing.
func (p *Pipeline) Stop() {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	p.running.Store(false)
	for _, sh := range p.shards {
		sh.queue.close()
	}
	if p.started {
		p.wg.Wait() //lint:allow lockorder lifeMu held across the join on purpose: it serializes Stop against Start, and workers never touch lifeMu, so the Wait cannot deadlock (TestStartStopRace, TestStartStopIdempotent)
	}
	// A Submit reads running and raises finishing under the shard's mu,
	// and running went false above, so every finish in Submit that can
	// still run is counted here. Each is one hook at most.
	for _, sh := range p.shards {
		for {
			sh.mu.Lock()
			n := sh.finishing
			sh.mu.Unlock()
			if n == 0 {
				break
			}
			runtime.Gosched()
		}
	}
}

// Drain blocks until no queued packet is in flight: every packet
// Submit queued before the call has been processed and its hook has
// returned (a packet Submit finished itself was done when its Submit
// returned). It parks the caller, spending no CPU and arming no timer,
// and the retire that brings the count to zero (the last packet of a
// worker's batch, or a rejected Submit) wakes it. Several goroutines
// may Drain at once, and Submit may run meanwhile; a Drain then also
// waits for what arrives before the count next reaches zero. Drain
// returns only while workers run or after Stop: on a pipeline never
// started it waits for packets nothing will process.
func (p *Pipeline) Drain() {
	if p.inFlight.Load() == 0 {
		return
	}
	p.drainMu.Lock()
	p.drainers.Add(1)
	for p.inFlight.Load() != 0 {
		p.drained.Wait()
	}
	p.drainers.Add(-1)
	p.drainMu.Unlock()
}

// retire takes n packets out of the in-flight count and wakes any
// Drain when that empties it. The count is decremented before drainers
// is read, and Drain registers before it reads the count, so one of
// the two always sees the other (sync/atomic is sequentially
// consistent): no wake-up is lost.
func (p *Pipeline) retire(n int64) {
	if p.inFlight.Add(-n) == 0 && p.drainers.Load() != 0 {
		p.drainMu.Lock()
		p.drained.Broadcast()
		p.drainMu.Unlock()
	}
}

// Submit hands one raw IPv4 packet to the pipeline and reports whether
// it was admitted (false = backpressure drop). It resolves the packet's
// actions through its shard's switch. While the pipeline runs and the
// shard has nothing queued, a packet finishes right here — interpreted,
// counted, and handed to its hook before Submit returns — when its
// actions run no middlebox chain, or when the flow cache missed on it:
// a flow's first packet is the one a session waits on, and handing it
// to an idle worker would add only a wake-up and a yield to its
// latency. Any other packet — a cached chain flow's — is copied into a
// pooled buffer (the caller keeps ownership of data) and queued,
// resolution and all, for the shard's worker to finish, so a stream of
// chain work runs on the workers in parallel with its producer. The
// worker resolves a queued packet again when the table has been written
// since its Submit, so a rule write (a deploy, a teardown) applies to
// every packet not yet finishing, queued or not. A packet is billed to
// its rule (FlowEntry.Count) when it finishes, so one dropped at the
// queue bills nothing.
//
// Counting: Enqueued is incremented for every Submit, admitted or not,
// and every rejected packet increments Dropped — see the ShardStats
// invariant.
func (p *Pipeline) Submit(data []byte, inPort uint16) bool {
	key, ok := openflow.KeyOf(data, inPort)
	sh := p.shards[int(key.Flow.FastHash()%uint64(len(p.shards)))]

	// Read before Resolve, so a rule write between the two makes the
	// worker resolve a queued packet again rather than miss the write.
	gen := uint32(p.table.Generation())
	sh.mu.Lock()
	c := &sh.counts
	c.Enqueued++
	// Every stageSampleEvery'th packet of a shard times its resolve, and
	// its finish if it finishes here; the others read no clock.
	seq := c.Enqueued
	sampled := seq%stageSampleEvery == 0
	var t0, t1, decodeNs int64
	var dp *int64
	if sampled {
		t0, dp = openflow.PerfStamp(), &decodeNs
	}
	actions, entry, hit := sh.sw.Resolve(key, ok, data, dp)
	if sampled {
		t1 = openflow.PerfStamp()
		c.DecodeNs += decodeNs
		c.LookupNs += t1 - t0 - decodeNs
		c.TotalNs += (t1 - t0) * stageSampleEvery
	}
	inline := (!hit || !runsChain(actions)) && p.running.Load() && sh.pending.Load() == 0
	if inline {
		sh.finishing++
	} else {
		sh.pending.Add(1)
	}
	sh.mu.Unlock()

	if inline {
		lc := ShardStats{Batches: 1, Inline: 1}
		if hit {
			lc.CacheHits = 1
		}
		delay := p.finish(entry, data, inPort, p.cfg.Now(), &lc)
		if sampled {
			end := openflow.PerfStamp()
			lc.ChainNs = end - t1
			lc.TotalNs = (end - t1) * stageSampleEvery
			if seq%latencySampleEvery == 0 {
				sh.latency.sampleLatency(time.Duration(end-t0) + delay)
			}
		}
		sh.mu.Lock()
		sh.counts.add(&lc)
		sh.finishing--
		sh.mu.Unlock()
		return true
	}

	bp := p.getBuf(len(data))
	*bp = append((*bp)[:0], data...)
	it := item{buf: bp, data: *bp, inPort: inPort, entry: entry, hit: hit, gen: gen}
	if seq%latencySampleEvery == 0 {
		it.enq = t0
	}
	p.inFlight.Add(1)
	if !sh.queue.push(it) {
		p.release(bp)
		sh.mu.Lock()
		sh.counts.Dropped++
		sh.mu.Unlock()
		sh.pending.Add(-1)
		p.retire(1)
		return false
	}
	return true
}

// runsChain reports whether an action list sends the packet through a
// middlebox chain: the work Submit leaves to a shard's worker once the
// flow is cached.
func runsChain(actions []openflow.Action) bool {
	for i := range actions {
		if actions[i].Type == openflow.ActionTypeMiddlebox {
			return true
		}
	}
	return false
}

// getBuf returns a pooled buffer (len 0) with capacity for n bytes. An
// undersized buffer is grown through the pooled pointer, so the pointer
// object stays in circulation and carries the right-sized array back to
// the pool on release. (Letting append grow the slice instead — the old
// Submit — stranded the pooled buffer and paid a fresh allocation for
// every oversized packet forever after.)
func (p *Pipeline) getBuf(n int) *[]byte {
	bp := p.bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, max(n, 2048))
	}
	*bp = (*bp)[:0]
	return bp
}

// release recycles a packet buffer. The pointer is the one getBuf handed
// out, so the pool round-trip allocates nothing; oversized one-off
// buffers (> 64 KiB) are let go to keep the pool's resident set small.
func (p *Pipeline) release(bp *[]byte) {
	if bp != nil && cap(*bp) <= 64<<10 {
		p.bufPool.Put(bp)
	}
}
