package dataplane

// Regression tests for the hot-path bugfix sweep that rode along with
// the batched fast path: the latency reservoir that stopped sampling,
// the pooled buffer stranded by oversized packets, the unsynchronized
// Start/Stop lifecycle, and the per-policy drop accounting invariant.
// Each test fails against the pre-fix code.

import (
	"sync"
	"testing"
	"time"
)

// TestLatencyRingLateSamples pins the overwrite-ring semantics of the
// latency reservoir. The old code appended only while len < 4096, so
// once full it silently ignored every later sample and LatencyDist
// froze on startup traffic forever.
func TestLatencyRingLateSamples(t *testing.T) {
	var c shardCounters
	for i := 0; i < latencyReservoir; i++ {
		c.sampleLatency(1 * time.Microsecond)
	}
	if n := len(c.latSamples); n != latencyReservoir {
		t.Fatalf("reservoir holds %d samples, want %d", n, latencyReservoir)
	}

	// One late sample must land (overwriting the oldest slot), not be
	// dropped on the floor.
	c.sampleLatency(9 * time.Microsecond)
	if n := len(c.latSamples); n != latencyReservoir {
		t.Fatalf("late sample grew the ring to %d, want bounded at %d", n, latencyReservoir)
	}
	found := false
	for _, v := range c.latSamples {
		if v == 9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("late sample was not recorded: reservoir still refuses samples once full")
	}

	// A full second generation of traffic must displace the first
	// entirely: the distribution tracks the newest window.
	for i := 0; i < latencyReservoir; i++ {
		c.sampleLatency(5 * time.Microsecond)
	}
	for i, v := range c.latSamples {
		if v != 5 {
			t.Fatalf("slot %d still holds stale sample %v after a full overwrite cycle", i, v)
		}
	}
}

// TestLatencyDistTracksLateTraffic is the same bug observed through the
// public surface: after the sampled reservoir fills with fast packets, a
// shift to slow traffic must move LatencyDist.
func TestLatencyDistTracksLateTraffic(t *testing.T) {
	p := New(Config{Shards: 1})
	for i := 0; i < latencyReservoir; i++ {
		p.shards[0].counters.sampleLatency(time.Microsecond)
	}
	for i := 0; i < latencyReservoir; i++ {
		p.shards[0].counters.sampleLatency(100 * time.Microsecond)
	}
	if got := p.LatencyDist().Max(); got != 100 {
		t.Fatalf("LatencyDist max = %vµs, want 100µs: late samples never landed", got)
	}
}

// TestGetBufGrowsPooledBufferInPlace pins the pool-leak fix: when a
// packet outgrows the pooled buffer, the buffer is grown through the
// pooled pointer, so the same pointer keeps cycling through the pool
// with a now-right-sized array. The old Submit did
// append((*bp)[:0], data...) and dropped the pooled buffer on the floor
// whenever len(data) > 2048 — every oversized packet then cost a fresh
// allocation forever after.
func TestGetBufGrowsPooledBufferInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts: pointer identity through the pool is not observable")
	}
	p := New(Config{Shards: 1})
	small := make([]byte, 0, 2048)
	sp := &small
	p.bufPool.Put(sp)

	got := p.getBuf(4096)
	if got != sp {
		t.Fatal("pooled buffer was stranded instead of grown in place")
	}
	if cap(*got) < 4096 {
		t.Fatalf("getBuf(4096) returned cap %d", cap(*got))
	}
	// Release and re-fetch: the grown capacity must survive the pool
	// round trip, so the next oversized packet is allocation-free.
	p.release(got)
	if again := p.getBuf(4096); again != sp || cap(*again) < 4096 {
		t.Fatalf("pool round trip lost the grown buffer (same=%v cap=%d)", again == sp, cap(*again))
	}
}

// TestSubmitLargePacketsSteadyStateAllocs drives the same fix
// end-to-end: once the pool has grown a right-sized buffer for >2048B
// packets, submitting more of them must not allocate per packet.
func TestSubmitLargePacketsSteadyStateAllocs(t *testing.T) {
	pkts := frames(t, 1)
	big := make([]byte, 4096)
	copy(big, pkts[0]) // valid IPv4 header, oversized payload region
	p := New(Config{Shards: 1, QueueDepth: 64, Policy: Block})
	installRules(t, p.Table())
	p.Start()
	defer p.Stop()

	for i := 0; i < 512; i++ { // warm the pool and the latency ring
		p.Submit(big, 0)
	}
	p.Drain()

	avg := testing.AllocsPerRun(200, func() {
		p.Submit(big, 0)
		p.Drain()
	})
	if avg >= 1 && !raceEnabled {
		t.Fatalf("steady-state Submit of >2048B packets allocates %.2f/op, want ~0 (pooled buffer leaked?)", avg)
	}
}

// TestStartStopIdempotent pins the lifecycle contract: double Start
// spawns one worker set, double Stop returns immediately, Start after
// Stop is a no-op, and Submit after Stop is a counted drop.
func TestStartStopIdempotent(t *testing.T) {
	pkts := frames(t, 1)
	p := New(Config{Shards: 1, QueueDepth: 8})
	installRules(t, p.Table())
	p.Start()
	p.Start() // must not double-spawn workers (Stop would deadlock on wg)
	if !p.Submit(pkts[0], 0) {
		t.Fatal("running pipeline rejected a packet")
	}
	p.Drain()
	p.Stop()
	p.Stop()  // must return immediately
	p.Start() // queues are closed; must be a no-op, not a worker leak
	if p.Submit(pkts[0], 0) {
		t.Fatal("Submit admitted a packet after Stop")
	}
	st := p.Stats().Total()
	if st.Enqueued != 2 || st.Processed != 1 || st.Dropped != 1 {
		t.Fatalf("post-stop accounting enqueued/processed/dropped = %d/%d/%d, want 2/1/1", st.Enqueued, st.Processed, st.Dropped)
	}
}

// TestStartStopRace hammers the lifecycle from many goroutines under
// -race. The old Pipeline.started was a plain bool written by Start and
// read by Stop — a textbook data race the detector flags the moment two
// goroutines touch the lifecycle.
func TestStartStopRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := New(Config{Shards: 2, QueueDepth: 8})
		installRules(t, p.Table())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 0 {
					p.Start()
				} else {
					p.Stop()
				}
			}(g)
		}
		wg.Wait()
		p.Stop() // join whichever worker set won the race
	}
}

// TestDropAccountingInvariant pins the ShardStats counting contract per
// policy: Enqueued counts every dispatched packet, Dropped every packet
// never processed, and at quiescence
//
//	Enqueued == Processed + Dropped + QueueDepth.
//
// Before the sweep, rejected packets were missing from Enqueued.
func TestDropAccountingInvariant(t *testing.T) {
	pkts := frames(t, 1) // one flow -> one shard

	check := func(t *testing.T, st ShardStats, enq, proc, drop int64) {
		t.Helper()
		if st.Enqueued != enq || st.Processed != proc || st.Dropped != drop {
			t.Fatalf("enqueued/processed/dropped = %d/%d/%d, want %d/%d/%d",
				st.Enqueued, st.Processed, st.Dropped, enq, proc, drop)
		}
		if st.Enqueued != st.Processed+st.Dropped+int64(st.QueueDepth) {
			t.Fatalf("invariant violated: %d != %d + %d + %d",
				st.Enqueued, st.Processed, st.Dropped, st.QueueDepth)
		}
	}

	t.Run("DropNewest", func(t *testing.T) {
		p := New(Config{Shards: 1, QueueDepth: 4, Policy: DropNewest})
		installRules(t, p.Table())
		for i := 0; i < 10; i++ { // workers not started: 4 admitted, 6 tail-dropped
			p.Submit(pkts[0], 0)
		}
		st := p.Stats().Total()
		check(t, st, 10, 0, 6)
		if st.QueueDepth != 4 {
			t.Fatalf("queue depth %d, want 4", st.QueueDepth)
		}
		p.Start()
		p.Drain()
		p.Stop()
		check(t, p.Stats().Total(), 10, 4, 6)
	})

	t.Run("Block", func(t *testing.T) {
		p := New(Config{Shards: 1, QueueDepth: 4, Policy: Block})
		installRules(t, p.Table())
		p.Start()
		for i := 0; i < 10; i++ {
			if !p.Submit(pkts[0], 0) {
				t.Fatalf("Block rejected packet %d", i)
			}
		}
		p.Drain()
		p.Stop()
		check(t, p.Stats().Total(), 10, 10, 0)
		// Post-close submits are dispatched-but-never-processed: both
		// sides of the books move together.
		if p.Submit(pkts[0], 0) {
			t.Fatal("Submit admitted a packet after Stop")
		}
		check(t, p.Stats().Total(), 11, 10, 1)
	})
}

// TestPipelineZeroAllocFastPath pins the tentpole's headline property:
// the no-chain steady state (flow-cache hit, Output action) allocates
// nothing per packet — pooled buffers in, preallocated worker arenas
// through, pooled buffers out.
func TestPipelineZeroAllocFastPath(t *testing.T) {
	pkts := frames(t, 1)
	p := New(Config{Shards: 1, QueueDepth: 256, Policy: Block})
	installRules(t, p.Table())
	p.Start()
	defer p.Stop()
	for i := 0; i < 1024; i++ { // warm pool, flow cache, latency ring
		p.Submit(pkts[0], 0)
	}
	p.Drain()

	avg := testing.AllocsPerRun(500, func() {
		p.Submit(pkts[0], 0)
	})
	p.Drain()
	if avg >= 1 && !raceEnabled {
		t.Fatalf("fast path allocates %.2f/op, want 0", avg)
	}
}
