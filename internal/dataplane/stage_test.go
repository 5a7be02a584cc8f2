package dataplane

import (
	"fmt"
	"testing"

	"pvn/internal/openflow"
)

// missFrames builds one packet for each of n distinct TCP flows.
func missFrames(t *testing.T, n, from int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		f := from + i
		out[i] = mustFrame(t, "10.0.0.5", fmt.Sprintf("93.184.%d.%d", f>>8&0xff, f&0xff), uint16(1000+f), 80)
	}
	return out
}

// TestStageSplitSampled holds the stage split to its contract on a
// miss-heavy stream: Submit, which resolves every packet, times the
// resolve on each shard's every stageSampleEvery'th packet only; the
// worker times its finishes on every stageSampleEvery'th batch only;
// the sampled split sees the misses' header decodes and the rest of the
// resolve step; the stages never add up past the whole time; and the
// cache-hit count is exact.
func TestStageSplitSampled(t *testing.T) {
	const flows = 2048
	p := New(Config{Shards: 1, BatchSize: 32, QueueDepth: 3 * flows})
	p.Table().Install(&openflow.FlowEntry{Actions: []openflow.Action{openflow.Output(1)}}, 0)
	// Every flow three times in a row: a third of the packets miss, and
	// as 3 and stageSampleEvery are coprime the sampled resolves see
	// misses and hits alike. Before Start every packet is queued,
	// resolution and all.
	for _, data := range missFrames(t, flows, 0) {
		for range 3 {
			p.Submit(data, 0)
		}
	}
	// Drain the queued stream through the worker loop on this goroutine,
	// so every batch is full and the sampled ones are known.
	p.Stop()
	p.wg.Add(1)
	p.work(p.shards[0])

	st := p.Stats().Total()
	if st.Processed != 3*flows || st.Dropped != 0 || st.Batches != 3*flows/32 {
		t.Fatalf("processed %d, dropped %d in %d batches; want %d, 0 in %d", st.Processed, st.Dropped, st.Batches, 3*flows, 3*flows/32)
	}
	if misses := int64(flows); st.CacheHits != st.Processed-misses {
		t.Errorf("CacheHits = %d, want processed - misses = %d", st.CacheHits, st.Processed-misses)
	}
	if st.DecodeNs <= 0 || st.LookupNs <= 0 || st.ChainNs <= 0 {
		t.Errorf("sampled split DecodeNs %d, LookupNs %d, ChainNs %d: want all > 0", st.DecodeNs, st.LookupNs, st.ChainNs)
	}
	if sum := st.DecodeNs + st.LookupNs + st.ChainNs; sum > st.TotalNs {
		t.Errorf("stages sum to %d ns, more than the whole %d ns", sum, st.TotalNs)
	}

	// Submit's unsampled resolves of misses read no clock; its shard's
	// stageSampleEvery'th is timed, decode and lookup.
	q := New(Config{Shards: 1, BatchSize: 32})
	q.Table().Install(&openflow.FlowEntry{Actions: []openflow.Action{openflow.Output(1)}}, 0)
	misses := missFrames(t, stageSampleEvery, flows)
	for _, data := range misses[:stageSampleEvery-1] {
		q.Submit(data, 0)
	}
	st = q.Stats().Total()
	if st.DecodeNs != 0 || st.LookupNs != 0 || st.ChainNs != 0 || st.TotalNs != 0 || st.CacheHits != 0 {
		t.Errorf("%d unsampled resolves of misses: DecodeNs %d LookupNs %d ChainNs %d TotalNs %d CacheHits %d; want all 0",
			stageSampleEvery-1, st.DecodeNs, st.LookupNs, st.ChainNs, st.TotalNs, st.CacheHits)
	}
	q.Submit(misses[stageSampleEvery-1], 0)
	st = q.Stats().Total()
	if st.DecodeNs+st.LookupNs <= 0 || st.TotalNs < st.DecodeNs+st.LookupNs || st.ChainNs != 0 {
		t.Errorf("the sampled resolve: DecodeNs %d LookupNs %d ChainNs %d TotalNs %d; want a split > 0 within TotalNs, no ChainNs",
			st.DecodeNs, st.LookupNs, st.ChainNs, st.TotalNs)
	}

	// An unsampled batch is timed whole, and per stage not at all.
	batch := make([]item, 32)
	n := q.shards[0].queue.popBatch(batch)
	before := st
	q.processBatch(q.shards[0], batch[:n], false)
	st = q.Stats().Total()
	if n != stageSampleEvery || st.Processed != int64(n) || st.Outputs != int64(n) || st.Batches != 1 {
		t.Fatalf("batch of %d: processed %d, outputs %d in %d batches; want %d each, 1 batch", n, st.Processed, st.Outputs, st.Batches, stageSampleEvery)
	}
	if st.DecodeNs != before.DecodeNs || st.LookupNs != before.LookupNs || st.ChainNs != 0 || st.TotalNs <= before.TotalNs {
		t.Errorf("unsampled batch: DecodeNs %d→%d LookupNs %d→%d ChainNs %d TotalNs %d→%d; want the split unchanged, TotalNs up",
			before.DecodeNs, st.DecodeNs, before.LookupNs, st.LookupNs, st.ChainNs, before.TotalNs, st.TotalNs)
	}
}
