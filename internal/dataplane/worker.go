package dataplane

import (
	"time"

	"pvn/internal/openflow"
)

// work is one shard's worker loop: drain a batch, finish it as a unit,
// recycle buffers, retire the batch from the pending and in-flight
// counts. Exits when the queue is closed and empty.
func (p *Pipeline) work(sh *shard) {
	defer p.wg.Done()
	batch := make([]item, p.cfg.BatchSize)
	var batchNo int64
	for {
		n := sh.queue.popBatch(batch)
		if n == 0 {
			return
		}
		// Every batch pays two clock reads (start/end); every
		// stageSampleEvery'th also times its finishes as ChainNs.
		sampled := batchNo%stageSampleEvery == 0
		batchNo++
		p.processBatch(sh, batch[:n], sampled)
		for i := range batch[:n] {
			p.release(batch[i].buf)
			batch[i] = item{}
		}
		sh.pending.Add(-int64(n))
		p.retire(int64(n))
	}
}

// processBatch finishes a batch of queued packets, whose actions Submit
// already resolved, in arrival order. It counts into a local ShardStats
// and adds that to the shard's once, at the end.
func (p *Pipeline) processBatch(sh *shard, batch []item, sampled bool) {
	t0 := openflow.PerfStamp()
	now := p.cfg.Now()
	lc := ShardStats{Batches: 1}
	for i := range batch {
		it := &batch[i]
		entry, hit := it.entry, it.hit
		if uint32(p.table.Generation()) != it.gen {
			// A rule write (a deploy, a teardown) since Submit resolved
			// the packet: it runs the rules as they stand now, as it would
			// have had it finished in Submit after the write. gen is
			// truncated; only exactly 2³² writes in between would hide one.
			key, ok := openflow.KeyOf(it.data, it.inPort)
			sh.mu.Lock()
			_, entry, hit = sh.sw.Resolve(key, ok, it.data, nil)
			sh.mu.Unlock()
		}
		if hit {
			lc.CacheHits++
		}
		delay := p.finish(entry, it.data, it.inPort, now, &lc)
		if it.enq != 0 {
			// Submit stamped every latencySampleEvery'th packet: queue
			// wait + processing, plus its modelled shaping/chain delay.
			sh.latency.sampleLatency(time.Duration(openflow.PerfStamp()-it.enq) + delay)
		}
	}
	lc.TotalNs = openflow.PerfStamp() - t0
	if sampled {
		lc.ChainNs = lc.TotalNs
	}
	sh.mu.Lock()
	sh.counts.add(&lc)
	sh.mu.Unlock()
}

// finish runs one resolved packet to its verdict — it bills the entry
// (nil: table miss), runs openflow's one interpreter
// (FlowTable.Interpret), then that verdict's hook — and counts it into
// lc. It returns the shaping/chain delay Interpret reported. Both paths
// call it: Submit for a packet it finishes itself, and a worker for a
// queued one. Billing here, not at Resolve, bills a rule only for the
// packets the pipeline runs: one it drops at its queue is not.
func (p *Pipeline) finish(entry *openflow.FlowEntry, data []byte, inPort uint16, now time.Duration, lc *ShardStats) time.Duration {
	if entry != nil {
		entry.Count(len(data))
	}
	term, out, delay, err := p.table.Interpret(openflow.ActionsOf(entry), data, now, p.cfg.Chains)
	lc.Processed++
	lc.Bytes += int64(len(data))
	if err != nil {
		lc.ChainErrs++
	}
	if term == nil {
		lc.Drops++
		return delay
	}
	switch term.Type {
	case openflow.ActionTypeOutput:
		lc.Outputs++
		if p.cfg.OnOutput != nil {
			p.cfg.OnOutput(term.Port, out)
		}
	case openflow.ActionTypeController:
		lc.PacketIns++
		if p.cfg.OnController != nil {
			p.cfg.OnController(inPort, out)
		}
	case openflow.ActionTypeTunnel:
		lc.Tunnels++
		name := term.Tunnel
		if p.cfg.Tunnels != nil {
			// The flow is re-peeked from the bytes Submit was given: only
			// a tunnel verdict needs it, so packets do not carry it.
			if key, ok := openflow.KeyOf(data, inPort); ok {
				name, _ = p.cfg.Tunnels.Route(name, key.Flow)
			}
		}
		if p.cfg.OnTunnel != nil {
			p.cfg.OnTunnel(name, out)
		}
	}
	return delay
}
