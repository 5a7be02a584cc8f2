package dataplane

import (
	"time"

	"pvn/internal/openflow"
)

// workerState is one worker's preallocated scratch: the drained batch
// and per-packet state. Everything is sized to BatchSize once, so the
// steady-state loop allocates nothing.
type workerState struct {
	batch []item

	// Per-packet state, indexed like batch.
	acts  [][]openflow.Action // resolved action list
	delay []time.Duration     // shaping/chain delay Interpret reported
}

func newWorkerState(batchSize int) *workerState {
	return &workerState{
		batch: make([]item, batchSize),
		acts:  make([][]openflow.Action, batchSize),
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
		p.retire(int64(n))
	}
}

// processBatch resolves the whole batch's actions through the shard's
// switch (Switch.Resolve, the step Switch.Process runs inline), then
// runs each packet through openflow's one interpreter
// (FlowTable.Interpret) and hands it to its verdict's hook.
// All counters accumulate in a localCounters and hit the shard atomics
// once, at the end.
func (p *Pipeline) processBatch(sh *shard, ws *workerState, n int, sampled bool) {
	t0 := openflow.PerfStamp()
	now := p.cfg.Now()
	c := &sh.counters
	c.batches.Add(1)
	var lc localCounters
	var decodeNs *int64
	if sampled {
		decodeNs = &lc.decodeNs
	}

	// Stage 1: resolve actions for the whole batch. The flow cache is
	// keyed by the 5-tuple Submit already extracted, so the steady state
	// never decodes a packet; only cache misses pay for a header decode
	// (into the switch's reusable decoder — no allocation) and a rule
	// scan, and only sampled batches time those decodes.
	for i := 0; i < n; i++ {
		it := &ws.batch[i]
		actions, _, hit := sh.sw.Resolve(it.key, it.ok, it.data, decodeNs)
		if hit {
			lc.cacheHits++
		}
		ws.acts[i] = actions
		lc.bytes += int64(len(it.data))
	}
	lc.processed = int64(n)
	var t1 int64
	if sampled {
		t1 = openflow.PerfStamp()
		lc.lookupNs = (t1 - t0) - lc.decodeNs
	}

	// Stage 2: interpret each action list to its verdict, in arrival
	// order, and count it and hand it to that verdict's hook. It is timed
	// as a whole, between stamps the batch takes anyway: two clock reads
	// per packet cost the bare-forwarding batch ~15 %.
	for i := 0; i < n; i++ {
		it := &ws.batch[i]
		term, out, delay, err := sh.sw.Table.Interpret(ws.acts[i], it.data, now, sh.sw.Chains)
		ws.delay[i] = delay
		if err != nil {
			lc.chainErrs++
		}
		if term == nil {
			lc.drops++
			continue
		}
		switch term.Type {
		case openflow.ActionTypeOutput:
			lc.outputs++
			if p.cfg.OnOutput != nil {
				p.cfg.OnOutput(term.Port, out)
			}
		case openflow.ActionTypeController:
			lc.packetIns++
			if p.cfg.OnController != nil {
				p.cfg.OnController(it.inPort, out)
			}
		case openflow.ActionTypeTunnel:
			lc.tunnels++
			name := term.Tunnel
			if p.cfg.Tunnels != nil && it.ok {
				name, _ = p.cfg.Tunnels.Route(name, it.key.Flow)
			}
			if p.cfg.OnTunnel != nil {
				p.cfg.OnTunnel(name, out)
			}
		}
	}

	end := openflow.PerfStamp()
	lc.totalNs = end - t0
	if sampled {
		lc.chainNs = end - t1
	}
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
