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

// TestStageSplitSampled holds the worker's stage split to its contract
// on a miss-heavy stream: only every stageSampleEvery'th batch carries
// stage stamps, the sampled split sees the misses' header decodes and
// the rest of the resolve step, the stages never add up past the
// batches' whole time, and the cache-hit count is exact.
func TestStageSplitSampled(t *testing.T) {
	const flows = 2048
	p := New(Config{Shards: 1, BatchSize: 32, QueueDepth: 2 * flows})
	p.Table().Install(&openflow.FlowEntry{Actions: []openflow.Action{openflow.Output(1)}}, 0)
	// Every flow twice in a row: each batch is half misses, half hits.
	for _, data := range missFrames(t, flows, 0) {
		p.Submit(data, 0)
		p.Submit(data, 0)
	}
	// Drain the queued stream through the worker loop on this goroutine,
	// so every batch is full and the sampled ones are known.
	p.Stop()
	p.wg.Add(1)
	p.work(p.shards[0])

	st := p.Stats().Total()
	if st.Processed != 2*flows || st.Dropped != 0 || st.Batches != 2*flows/32 {
		t.Fatalf("processed %d, dropped %d in %d batches; want %d, 0 in %d", st.Processed, st.Dropped, st.Batches, 2*flows, 2*flows/32)
	}
	if misses := int64(flows); st.CacheHits != st.Processed-misses {
		t.Errorf("CacheHits = %d, want processed - misses = %d", st.CacheHits, st.Processed-misses)
	}
	if st.DecodeNs <= 0 || st.LookupNs <= 0 {
		t.Errorf("sampled split DecodeNs %d, LookupNs %d: want both > 0", st.DecodeNs, st.LookupNs)
	}
	if sum := st.DecodeNs + st.LookupNs + st.ChainNs; sum > st.TotalNs {
		t.Errorf("stages sum to %d ns, more than the batches' %d ns", sum, st.TotalNs)
	}

	// An unsampled batch of misses is timed whole, and per stage not at all.
	q := New(Config{Shards: 1, BatchSize: 32})
	q.Table().Install(&openflow.FlowEntry{Actions: []openflow.Action{openflow.Output(1)}}, 0)
	ws := newWorkerState(32)
	for i, data := range missFrames(t, 32, flows) {
		key, ok := openflow.KeyOf(data, 0)
		ws.batch[i] = item{data: data, key: key, ok: ok}
	}
	q.processBatch(q.shards[0], ws, 32, false)
	st = q.Stats().Total()
	if st.DecodeNs != 0 || st.LookupNs != 0 || st.ChainNs != 0 || st.TotalNs <= 0 || st.CacheHits != 0 {
		t.Errorf("unsampled batch of misses: DecodeNs %d LookupNs %d ChainNs %d TotalNs %d CacheHits %d; want 0 0 0 >0 0",
			st.DecodeNs, st.LookupNs, st.ChainNs, st.TotalNs, st.CacheHits)
	}
}
