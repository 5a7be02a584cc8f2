package dataplane

import (
	"time"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// workerState is one worker's preallocated scratch: the drained batch,
// a reusable header decoder and per-packet interpreter state. Everything
// is sized to BatchSize once, so the steady-state loop allocates nothing.
type workerState struct {
	batch []item
	dec   packet.Decoder

	// Per-packet interpreter state, indexed like batch.
	acts  [][]openflow.Action // resolved action list
	cur   [][]byte            // current bytes (after any rewrites)
	delay []time.Duration     // accumulated shaping/chain delay
}

func newWorkerState(batchSize int) *workerState {
	return &workerState{
		batch: make([]item, batchSize),
		acts:  make([][]openflow.Action, batchSize),
		cur:   make([][]byte, batchSize),
		delay: make([]time.Duration, batchSize),
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

// processBatch resolves the whole batch's actions, then interprets each
// packet to its verdict, mirroring openflow.Switch.Process semantics per
// packet so the serial and sharded dataplanes stay behaviourally
// interchangeable. All counters accumulate in a localCounters and hit
// the shard atomics once, at the end.
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
		ws.delay[i] = 0
		lc.bytes += int64(len(it.data))
	}
	lc.processed = int64(n)
	if sampled {
		t1 := time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
		lc.decodeNs = decodeNs
		lc.lookupNs = (t1 - t0) - decodeNs
	}

	// Stage 2: interpret each action list to its verdict, in arrival
	// order.
	for i := 0; i < n; i++ {
		p.advance(ws, i, now, &lc, sampled)
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

// advance runs packet i's action list to its verdict, leaving the
// shaping and chain delay it accumulated in ws.delay[i]. Semantics per
// action match openflow.Switch.Process exactly; this is the worker's own
// copy so that Process stays an independent reference for the
// differential tests.
func (p *Pipeline) advance(ws *workerState, i int, now time.Duration, lc *localCounters, sampled bool) {
	it := &ws.batch[i]
	for _, a := range ws.acts[i] {
		switch a.Type {
		case openflow.ActionTypeOutput:
			lc.outputs++
			if p.cfg.OnOutput != nil {
				p.cfg.OnOutput(a.Port, ws.cur[i])
			}
			return

		case openflow.ActionTypeDrop:
			lc.drops++
			return

		case openflow.ActionTypeController:
			lc.packetIns++
			if p.cfg.OnController != nil {
				p.cfg.OnController(it.inPort, ws.cur[i])
			}
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
			return

		case openflow.ActionTypeMiddlebox:
			if p.cfg.Chains == nil {
				lc.drops++
				return
			}
			var tc int64
			if sampled {
				tc = time.Now().UnixNano() //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
			}
			out, d, err := p.cfg.Chains.ExecuteChain(a.Chain, ws.cur[i])
			if sampled {
				lc.chainNs += time.Now().UnixNano() - tc //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time
			}
			ws.delay[i] += d
			if err != nil || out == nil {
				if err != nil {
					lc.chainErrs++
				}
				lc.drops++
				return
			}
			ws.cur[i] = out

		case openflow.ActionTypeMeter:
			ws.delay[i] += p.table.Shape(a.MeterID, now+ws.delay[i], len(ws.cur[i]))

		case openflow.ActionTypeSetDst:
			out, err := openflow.RewriteDst(ws.cur[i], a.Dst, a.DstPort)
			if err != nil {
				lc.drops++
				return
			}
			ws.cur[i] = out
		}
	}
	// Action list ended without a terminal action: drop, per OpenFlow.
	lc.drops++
}
