// Package dataplane is the PVN host's parallel packet pipeline: it puts
// bounded queues and a sharded worker pool in front of the per-packet
// path openflow.Switch.Process runs inline (Switch.Resolve's flow cache
// or header decode and lookup → FlowTable.Interpret → output/tunnel/
// controller), so one edge host can use every core the access hardware
// has (ROADMAP: "heavy traffic from millions of users, as fast as the
// hardware allows"; paper §3.3 cites ClickOS-class per-packet budgets
// that leave no room for a global lock). Each shard is an
// openflow.Switch over the pipeline's table, so the workers and
// Switch.Process share one resolve step and one action interpreter; the
// pipeline adds the rings, the batching and the hooks.
//
// Architecture:
//
//		Submit ─hash(5-tuple)─▶ per-shard bounded ring ─batch─▶ worker ─▶ hooks
//		                              │                            │
//		                        backpressure/drop      shard's Switch.Resolve
//		                          policy                over COW rule snapshot
//
//	  - Packets are partitioned by the symmetric packet.Flow hash, so both
//	    directions of a conversation land on the same shard and all
//	    per-flow state (the exact-match flow cache) is owned by exactly one
//	    worker — no locks on the hot path. That cache holds two
//	    generations of 12288 new flows each, so a shard's memory does not
//	    grow with the flows it has seen; ShardStats.CacheEvictions counts
//	    the idle flows it drops.
//	  - Rule and meter state lives in an openflow.FlowTable: an
//	    atomically-published copy-on-write snapshot written by the
//	    control plane (deployserver flow mods) and read lock-free by
//	    every worker through its shard switch's private flow cache.
//	  - Workers pull fixed-size batches from their ring to amortize queue
//	    synchronization, and recycle packet buffers through a sync.Pool.
//	  - Queues are bounded; the DropPolicy decides whether overload tail
//	    drops or blocks the producer. Memory stays bounded either way.
//
// Middlebox chains: the one openflow.ChainExecutor is invoked
// concurrently from worker goroutines, one ExecuteChain call (made by
// Interpret) per Middlebox action. A middlebox.Runtime locks itself per
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

// Config parameterizes a Pipeline. The zero value is usable: GOMAXPROCS
// shards, batch 32, queue depth 1024, tail drop, no hooks.
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
	// All three hooks are called from worker goroutines, concurrently.

	// Now supplies simulated time for meters; nil means time zero, like
	// openflow.NewSwitch.
	Now func() time.Duration
}

// shard is one queue + worker + privately-owned flow state: the
// worker's openflow.Switch over the pipeline's table and executor,
// whose flow cache and decoder only that worker touches.
type shard struct {
	id       int
	queue    *ring
	sw       *openflow.Switch
	counters shardCounters
}

// Pipeline is the running dataplane: N shards fed by Submit, draining
// through workers into the configured hooks.
type Pipeline struct {
	cfg    Config
	table  *openflow.FlowTable
	shards []*shard

	bufPool sync.Pool

	// inFlight counts admitted packets not yet retired. Drain parks on
	// drained while drainers says it waits; retire wakes it only then,
	// so a batch with no drainer pays one atomic load for it.
	inFlight atomic.Int64
	drainers atomic.Int32
	drainMu  sync.Mutex
	drained  sync.Cond

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

// Start launches one worker per shard. It is idempotent and safe to
// call concurrently with Stop; once the pipeline has been stopped,
// Start is a no-op (the queues are closed — the pipeline cannot be
// restarted).
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
}

// Stop closes the queues, lets workers drain what is already enqueued,
// and waits for them to exit. Idempotent: further Stops return
// immediately, and a Start racing the first Stop either wins (its
// workers are then drained and joined here) or observes stopped and
// does nothing.
func (p *Pipeline) Stop() {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	for _, sh := range p.shards {
		sh.queue.close()
	}
	if p.started {
		p.wg.Wait() //lint:allow lockorder lifeMu held across the join on purpose: it serializes Stop against Start, and workers never touch lifeMu, so the Wait cannot deadlock (TestStartStopRace, TestStartStopIdempotent)
	}
}

// Drain blocks until no admitted packet is in flight: every packet
// Submit admitted before the call has been processed and its hook has
// returned. It parks the caller, spending no CPU and arming no timer,
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

// Submit hands one raw IPv4 packet to the pipeline. The caller keeps
// ownership of data: it is copied into a pooled buffer. It reports
// whether the packet was admitted (false = backpressure drop).
//
// Counting: Enqueued is incremented for every Submit, admitted or not,
// and every rejected packet increments Dropped — see the ShardStats
// invariant.
func (p *Pipeline) Submit(data []byte, inPort uint16) bool {
	key, ok := openflow.KeyOf(data, inPort)
	sh := p.shards[int(key.Flow.FastHash()%uint64(len(p.shards)))]
	seq := sh.counters.enqueued.Add(1)

	bp := p.getBuf(len(data))
	*bp = append((*bp)[:0], data...)
	it := item{buf: bp, data: *bp, inPort: inPort, key: key, ok: ok}
	if seq%latencySampleEvery == 0 {
		// Stamp only the sampled packets, so the submit fast path pays
		// no clock read for the other latencySampleEvery-1.
		it.enq = openflow.PerfStamp()
	}

	p.inFlight.Add(1)
	if !sh.queue.push(it) {
		p.release(bp)
		sh.counters.dropped.Add(1)
		p.retire(1)
		return false
	}
	return true
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
