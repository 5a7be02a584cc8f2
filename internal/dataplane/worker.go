package dataplane

import (
	"time"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// workerState is one worker's preallocated scratch: the drained batch,
// a reusable header decoder, per-packet interpreter state, and the
// grouping arenas for batched chain execution. Everything is sized to
// BatchSize once, so the steady-state loop allocates nothing.
type workerState struct {
	batch []item
	dec   packet.Decoder

	// Per-packet interpreter state, indexed like batch.
	acts    [][]openflow.Action // resolved action list
	cur     [][]byte            // current bytes (after any rewrites)
	pc      []int               // next action index
	delay   []time.Duration     // accumulated shaping/chain delay
	done    []bool              // reached a terminal disposition
	claimed []bool              // grouped in the current chain pass

	// Chain-batching arenas: one group's packets and its caller-allocated
	// result slices (see openflow.BatchProcessor).
	gidx []int
	pkts [][]byte
	outs [][]byte
	cdel []time.Duration
	cerr []error
}

func newWorkerState(batchSize int) *workerState {
	return &workerState{
		batch:   make([]item, batchSize),
		acts:    make([][]openflow.Action, batchSize),
		cur:     make([][]byte, batchSize),
		pc:      make([]int, batchSize),
		delay:   make([]time.Duration, batchSize),
		done:    make([]bool, batchSize),
		claimed: make([]bool, batchSize),
		gidx:    make([]int, 0, batchSize),
		pkts:    make([][]byte, 0, batchSize),
		outs:    make([][]byte, batchSize),
		cdel:    make([]time.Duration, batchSize),
		cerr:    make([]error, batchSize),
	}
}

// work is one shard's worker loop: drain a batch, process it as a unit,
// recycle buffers, retire the batch from the in-flight count. Exits when
// the queue is closed and empty.
func (p *Pipeline) work(sh *shard) {
	defer p.wg.Done()
	ws := newWorkerState(p.cfg.BatchSize)
	var batchNo int64
	for {
		n := sh.queue.popBatch(ws.batch)
		if n == 0 {
			return
		}
		// Every batch pays two clock reads (start/end); every
		// stageSampleEvery'th also carries per-stage stamps so the
		// decode/lookup/chain split in ShardStats stays meaningful.
		sampled := batchNo%stageSampleEvery == 0
		batchNo++
		p.processBatch(sh, ws, n, sampled)
		for i := 0; i < n; i++ {
			p.release(ws.batch[i].buf)
			ws.batch[i] = item{}
		}
		p.inFlight.Add(-int64(n))
		p.maybeExpire(int64(n))
	}
}

// processBatch runs n packets through resolve → interpret as two batch
// stages, mirroring openflow.Switch.Process semantics per packet so the
// serial and sharded dataplanes stay behaviourally interchangeable. All
// counters accumulate in a localCounters and hit the shard atomics once,
// at the end.
func (p *Pipeline) processBatch(sh *shard, ws *workerState, n int, sampled bool) {
	t0 := time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
	now := p.cfg.Now()
	c := &sh.counters
	c.batches.Add(1)
	var lc localCounters
	var decodeNs int64

	// Stage 1: resolve actions for the whole batch. The flow cache is
	// keyed by the 5-tuple Submit already extracted, so the steady state
	// never decodes a packet; only cache misses pay for a header decode
	// (into the worker's reusable decoder — no allocation) and a rule
	// scan.
	for i := 0; i < n; i++ {
		it := &ws.batch[i]
		actions, hit := p.table.LookupCached(sh.cache, it.key, it.ok, len(it.data), now)
		if hit {
			lc.cacheHits++
		} else {
			var td int64
			if sampled {
				td = time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
			}
			pkt := ws.dec.DecodeHeaders(it.data, packet.LayerTypeIPv4)
			fields := openflow.ExtractFields(pkt, it.inPort)
			if sampled {
				decodeNs += time.Now().UnixNano() - td //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
			}
			actions = p.table.LookupScan(sh.cache, it.key, it.ok, fields, len(it.data), now)
		}
		ws.acts[i] = actions
		ws.cur[i] = it.data
		ws.pc[i] = 0
		ws.delay[i] = 0
		ws.done[i] = false
		lc.bytes += int64(len(it.data))
	}
	lc.processed = int64(n)
	if sampled {
		t1 := time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
		lc.decodeNs = decodeNs
		lc.lookupNs = (t1 - t0) - decodeNs
	}

	// Stage 2: interpret the action lists. Packets run until they reach
	// a terminal verdict or stall at a Middlebox action; stalled packets
	// are grouped by chain and executed as batches, then resume. Packets
	// sharing a rule stall together, so the common case is one chain
	// call per batch.
	for {
		stalled := 0
		for i := 0; i < n; i++ {
			if !ws.done[i] {
				p.advance(sh, ws, i, now, &lc)
				if !ws.done[i] {
					stalled++
				}
			}
		}
		if stalled == 0 {
			break
		}
		p.runChains(sh, ws, n, &lc, sampled)
	}

	end := time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
	lc.totalNs = end - t0
	lc.flush(c)

	// Latency samples: Submit stamps every latencySampleEvery'th packet;
	// anything stamped in this batch gets queue wait + processing plus
	// its modelled shaping/chain delay.
	for i := 0; i < n; i++ {
		if e := ws.batch[i].enq; e != 0 {
			c.sampleLatency(time.Duration(end-e) + ws.delay[i])
		}
	}
}

// advance runs packet i's action list until it terminates or stalls at a
// Middlebox action (left for runChains). Semantics per action match
// openflow.Switch.Process exactly.
func (p *Pipeline) advance(sh *shard, ws *workerState, i int, now time.Duration, lc *localCounters) {
	it := &ws.batch[i]
	acts := ws.acts[i]
	for ws.pc[i] < len(acts) {
		a := acts[ws.pc[i]]
		switch a.Type {
		case openflow.ActionTypeOutput:
			lc.outputs++
			if p.cfg.OnOutput != nil {
				p.cfg.OnOutput(a.Port, ws.cur[i])
			}
			ws.done[i] = true
			return

		case openflow.ActionTypeDrop:
			lc.drops++
			ws.done[i] = true
			return

		case openflow.ActionTypeController:
			lc.packetIns++
			if p.cfg.OnController != nil {
				p.cfg.OnController(it.inPort, ws.cur[i])
			}
			ws.done[i] = true
			return

		case openflow.ActionTypeTunnel:
			lc.tunnels++
			name := a.Tunnel
			if p.cfg.Tunnels != nil && it.ok {
				name, _ = p.cfg.Tunnels.Route(name, it.key.Flow)
			}
			if p.cfg.OnTunnel != nil {
				p.cfg.OnTunnel(name, ws.cur[i])
			}
			ws.done[i] = true
			return

		case openflow.ActionTypeMiddlebox:
			if sh.chains == nil {
				lc.drops++
				ws.done[i] = true
				return
			}
			// Stall: runChains executes this step as part of a group.
			return

		case openflow.ActionTypeMeter:
			ws.delay[i] += p.table.Shape(a.MeterID, now+ws.delay[i], len(ws.cur[i]))
			ws.pc[i]++

		case openflow.ActionTypeSetDst:
			out, err := openflow.RewriteDst(ws.cur[i], a.Dst, a.DstPort)
			if err != nil {
				lc.drops++
				ws.done[i] = true
				return
			}
			ws.cur[i] = out
			ws.pc[i]++

		default:
			ws.pc[i]++
		}
	}
	// Action list ended without a terminal action: drop, per OpenFlow.
	lc.drops++
	ws.done[i] = true
}

// runChains executes one middlebox step for every stalled packet,
// grouping packets stalled on the same chain into a single batched call
// (openflow.BatchProcessor when the executor supports it, a scalar loop
// otherwise). After the chain invariant — every not-done packet sits on
// a Middlebox action with a non-nil executor — outs[i]==nil with no
// error means the chain dropped the packet, as in the scalar path.
func (p *Pipeline) runChains(sh *shard, ws *workerState, n int, lc *localCounters, sampled bool) {
	for i := 0; i < n; i++ {
		ws.claimed[i] = false
	}
	for i := 0; i < n; i++ {
		if ws.done[i] || ws.claimed[i] {
			continue
		}
		chain := ws.acts[i][ws.pc[i]].Chain
		g := ws.gidx[:0]
		pkts := ws.pkts[:0]
		for j := i; j < n; j++ {
			if ws.done[j] || ws.claimed[j] || ws.acts[j][ws.pc[j]].Chain != chain {
				continue
			}
			ws.claimed[j] = true
			g = append(g, j)
			pkts = append(pkts, ws.cur[j])
		}
		outs, dels, errs := ws.outs[:len(g)], ws.cdel[:len(g)], ws.cerr[:len(g)]
		var tc int64
		if sampled {
			tc = time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
		}
		if sh.batchChains != nil {
			sh.batchChains.ExecuteChainBatch(chain, pkts, outs, dels, errs)
		} else {
			for k, j := range g {
				outs[k], dels[k], errs[k] = sh.chains.ExecuteChain(chain, ws.cur[j])
			}
		}
		if sampled {
			lc.chainNs += time.Now().UnixNano() - tc //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
		}
		for k, j := range g {
			ws.delay[j] += dels[k]
			if errs[k] != nil || outs[k] == nil {
				if errs[k] != nil {
					lc.chainErrs++
				}
				lc.drops++
				ws.done[j] = true
			} else {
				ws.cur[j] = outs[k]
				ws.pc[j]++
			}
		}
	}
}
