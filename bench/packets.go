package main

import (
	"fmt"
	"runtime"
	"time"

	"pvn/internal/dataplane"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// round is one closed-loop unit of packet work with its oracle: seq is
// submitted passes times, and of every pass wantOut frames must reach
// OnOutput and wantDrop must be dropped by the owner's chain.
type round struct {
	seq               [][]byte
	passes            int
	wantOut, wantDrop int64
}

func (rd *round) packets() int64 { return int64(len(rd.seq) * rd.passes) }

// packetWorld is a host with its residents deployed and the generated
// traffic of one packet workload.
type packetWorld struct {
	cfg   runConfig
	host  *host
	subs  []subscriber
	ih    *inputHash
	pool  *framePool // fwd_cached, chain_http
	fixed *round     // the pool's round, identical every time
	churn *churnGen  // flow_churn
	// probe is the next clean pool frame the window-1 phase sends.
	probe int
	// scratch holds flow_churn's window-1 frame.
	scratch []byte
	// What the pipeline's own stage counters say a packet's chain and a
	// miss's decode cost, for the cross-check against the ladder rows.
	stageChainNs, stageDecodeNs float64
}

// buildPacketWorld is what setup_s times: keys, runtime, pipeline,
// residents deployed through HandleDeploy, frames generated.
func buildPacketWorld(cfg runConfig) (*packetWorld, error) {
	r := newRNG(cfg.seed)
	w := &packetWorld{cfg: cfg, ih: newInputHash()}
	residents := cfg.scaled(cfg.spec.Residents, 8)
	flows := cfg.scaled(cfg.spec.Flows, 64)
	w.subs = makeSubscribers(0, residents, r)
	for i := range w.subs {
		w.ih.addString(w.subs[i].text)
	}
	var err error
	if w.host, err = newHost(residents, dataplane.Block, nil); err != nil {
		return nil, err
	}
	if err := w.host.deployAll(w.subs); err != nil {
		w.host.close()
		return nil, err
	}
	roundOps := cfg.scaled(cfg.spec.RoundOps, 1)
	switch cfg.spec.Name {
	case "fwd_cached":
		w.pool = cachedPool(w.subs, flows, r, w.ih)
	case "chain_http":
		w.pool = httpPool(w.subs, flows, httpPerFlow, leakPerMille, r, w.ih)
	case "flow_churn":
		w.churn = &churnGen{subs: w.subs, r: r}
		w.scratch = make([]byte, churnFrameSize)
	default:
		w.host.close()
		return nil, fmt.Errorf("no packet workload %q", cfg.spec.Name)
	}
	if w.pool != nil {
		seq := make([][]byte, len(w.pool.order))
		for k, i := range w.pool.order {
			seq[k] = w.pool.frames[i]
		}
		passes := roundOps / len(seq)
		if passes < 1 {
			passes = 1
		}
		w.fixed = &round{seq: seq, passes: passes, wantOut: w.pool.wantOut, wantDrop: w.pool.wantDrop}
	}
	return w, nil
}

// nextRound returns the next round of traffic. Pool workloads repeat
// one round; flow_churn generates fresh flows (untimed, before the
// round's clock starts).
func (w *packetWorld) nextRound() *round {
	if w.fixed != nil {
		return w.fixed
	}
	flows := w.cfg.scaled(w.cfg.spec.RoundOps, churnPktsPerFlow) / churnPktsPerFlow
	seq := w.churn.round(flows, w.ih)
	return &round{seq: seq, passes: 1, wantOut: int64(len(seq))}
}

// probeFrame returns the next window-1 frame, one the oracle expects at
// OnOutput: a clean pool frame, or for flow_churn the first packet of a
// brand-new flow.
func (w *packetWorld) probeFrame() []byte {
	if w.pool != nil {
		f := w.pool.frames[w.pool.clean[w.probe%len(w.pool.clean)]]
		w.probe++
		return f
	}
	w.scratch = w.churn.frame(w.churn.next, w.scratch)
	w.churn.next++
	return w.scratch
}

// prime is what every run does between set-up and the first timed
// round: the generator's self-test, then one untimed round so caches,
// pools and lazy set-up settle. The round is still held to the oracle.
func (w *packetWorld) prime(rep *report) {
	w.selfTest(rep)
	warm := w.nextRound()
	w.checkRound(rep, warm, w.runRound(warm, false))
}

// selfTest checks the generator against the serial reference switch
// before any timing: every sampled clean frame must come out of
// Switch.Process as Output and every leak frame as Drop. It catches a
// generator whose "clean" frames trip a detector (filler with a digit
// run, a frame edited after serialization failing its checksum).
func (w *packetWorld) selfTest(rep *report) {
	check := func(frame []byte, leak bool) {
		want := openflow.VerdictOutput
		if leak {
			want = openflow.VerdictDrop
		}
		rep.ops(1)
		if got := w.host.serialVerdict(frame); got != want {
			rep.fail(1, "generator self-test: serial switch says %s, oracle %s", got, want)
		}
	}
	if w.pool != nil {
		n := len(w.pool.frames)
		if n > 512 {
			n = 512
		}
		for _, i := range w.pool.order[:n] {
			check(w.pool.frames[i], w.pool.leak[i])
		}
		return
	}
	for i := 0; i < 256; i++ {
		check(w.probeFrame(), false)
	}
}

// roundResult is what one closed-loop round measured.
type roundResult struct {
	wall, cpu time.Duration
	stats     dataplane.ShardStats // delta over the round
	mallocs   uint64
}

// runRound submits a round from one producer goroutine and waits for
// Drain: the closed loop. With dataplane.Block a full queue stalls the
// producer, so no packet is lost by construction.
func (w *packetWorld) runRound(rd *round, countMallocs bool) roundResult {
	h := w.host
	before := h.dp.Stats().Total()
	var m0 uint64
	if countMallocs {
		m0 = mallocsNow()
	}
	cpu0 := cpuNow()
	t0 := time.Now()
	for p := 0; p < rd.passes; p++ {
		for _, f := range rd.seq {
			h.dp.Submit(f, 0)
		}
	}
	h.dp.Drain()
	res := roundResult{wall: time.Since(t0), cpu: cpuNow() - cpu0}
	if countMallocs {
		res.mallocs = mallocsNow() - m0
	}
	res.stats = statsDelta(h.dp.Stats().Total(), before)
	return res
}

// tracedRounds closed-loop rounds feed the traced pass's ratios.
const tracedRounds = 4

// exactVerdicts records the counters of an interval that must repeat
// for one seed.
func exactVerdicts(rep *report, d dataplane.ShardStats) {
	rep.Exact["outputs"] = d.Outputs
	rep.Exact["drops"] = d.Drops
	rep.Exact["cache_hits"] = d.CacheHits
	rep.Exact["processed"] = d.Processed
}

func statsDelta(a, b dataplane.ShardStats) dataplane.ShardStats {
	return dataplane.ShardStats{
		Enqueued: a.Enqueued - b.Enqueued, Dropped: a.Dropped - b.Dropped,
		Processed: a.Processed - b.Processed, Batches: a.Batches - b.Batches,
		Bytes: a.Bytes - b.Bytes, CacheHits: a.CacheHits - b.CacheHits,
		Outputs: a.Outputs - b.Outputs, Drops: a.Drops - b.Drops,
		Tunnels: a.Tunnels - b.Tunnels, PacketIns: a.PacketIns - b.PacketIns,
		ChainErrs: a.ChainErrs - b.ChainErrs,
		DecodeNs:  a.DecodeNs - b.DecodeNs, LookupNs: a.LookupNs - b.LookupNs,
		ChainNs: a.ChainNs - b.ChainNs, TotalNs: a.TotalNs - b.TotalNs,
	}
}

// checkStats holds a phase's counter delta against the oracle: exact
// verdict counts, nothing punted, no chain error, no queue loss, and
// everything enqueued was processed.
func checkStats(rep *report, phase string, d dataplane.ShardStats, sent, wantOut, wantDrop int64) {
	rep.ops(sent)
	rep.expect(phase+" enqueued", d.Enqueued, sent)
	rep.expect(phase+" processed", d.Processed, sent)
	rep.expect(phase+" outputs", d.Outputs, wantOut)
	rep.expect(phase+" drops", d.Drops, wantDrop)
	rep.expect(phase+" packet-ins", d.PacketIns, 0)
	rep.expect(phase+" chain errors", d.ChainErrs, 0)
	rep.expect(phase+" queue drops", d.Dropped, 0)
	rep.expect(phase+" tunnels", d.Tunnels, 0)
}

// checkRound applies checkStats to one closed-loop round.
func (w *packetWorld) checkRound(rep *report, rd *round, res roundResult) {
	p := int64(rd.passes)
	checkStats(rep, "round", res.stats, rd.packets(), rd.wantOut*p, rd.wantDrop*p)
}

// window1 sends one packet at a time and waits for its OnOutput: what
// a sparse flow pays on an idle host. It runs for at least minSamples
// and then until the budget is spent, and returns per-sample µs.
func (w *packetWorld) window1(rep *report, budget time.Duration, minSamples int, rec *recorder) []float64 {
	h := w.host
	before := h.dp.Stats().Total()
	hook0 := h.outputs.Load()
	lat := make([]float64, 0, 1<<16)
	start := time.Now()
	for n := 0; n < minSamples || time.Since(start) < budget; n++ {
		f := w.probeFrame()
		seen := h.outputs.Load()
		op := rec.begin("packet.submit_to_output", -1, int64(n))
		t0 := time.Now()
		sub := rec.begin("dataplane.submit", op, int64(n))
		h.dp.Submit(f, 0)
		rec.end(sub)
		ok := h.awaitOutputs(seen + 1)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		rec.end(op)
		if !ok {
			rep.fail(1, "window-1 sample %d never reached OnOutput", n)
			break
		}
	}
	h.dp.Drain()
	n := int64(len(lat))
	checkStats(rep, "window-1", statsDelta(h.dp.Stats().Total(), before), n, n, 0)
	rep.expect("window-1 OnOutput calls", h.outputs.Load()-hook0, n)
	return lat
}

// minRounds closed-loop rounds always run, so heap_live_mb has its
// fixed point and the medians have something to rest on.
const minRounds = heapAfterRounds + 1

// runPackets is an untraced run of a packet workload: the end-to-end
// numbers.
func runPackets(cfg runConfig) (*report, error) {
	rep := newReport(cfg.spec.Name, cfg.seed, false)
	w, setup, err := setupRepeated(cfg, buildPacketWorld, (*packetWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep.setN("setup_s", setup, setupRepeats)
	w.prime(rep)

	var rates []float64
	var cpu time.Duration
	var pkts int64
	budget := cfg.budget(0.6)
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		rd := w.nextRound()
		res := w.runRound(rd, false)
		w.checkRound(rep, rd, res)
		rates = append(rates, float64(rd.packets())/res.wall.Seconds())
		cpu += res.cpu
		pkts += rd.packets()
		if n == 0 {
			w.ih.seal()
			exactVerdicts(rep, res.stats)
		}
		if n+1 == heapAfterRounds {
			rep.set("heap_live_mb", heapLiveMB())
		}
	}
	rep.setN("ops_per_s", quietQuartile(rates, true), len(rates))
	rep.setN("cpu_ns_per_op", float64(cpu.Nanoseconds())/float64(pkts), int(pkts))

	w.window1(rep, 0, 200, nil) // warm the wake-up path
	lat := w.window1(rep, cfg.budget(0.4), 100, nil)
	setLatency(rep, lat)

	rep.Exact["rules"] = int64(w.host.dp.Table().Len())
	rep.InputHash = w.ih.sum()
	return rep, nil
}

func (w *packetWorld) close() { w.host.close() }

// setupRepeated builds the world setupRepeats times, timing each build,
// and keeps the last; setup_s is the median so that one slow build (a
// GC, a descheduled thread) does not decide the metric.
func setupRepeated[W any](cfg runConfig, build func(runConfig) (W, error), closeWorld func(W)) (W, float64, error) {
	var world W
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeWorld(world)
		}
		runtime.GC() // every build starts from the same heap
		t0 := time.Now()
		w, err := build(cfg)
		if err != nil {
			return world, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		world = w
	}
	return world, median(times), nil
}

// tracedPackets is the workload's own traced pass: the ratios and
// counts a packet workload's per-layer rows need, the window-1 phase
// with spans on and off, and the rule-scan depth of its flows.
func tracedPackets(cfg runConfig, rep *report) (*packetWorld, error) {
	w, err := buildPacketWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.prime(rep)

	// Several rounds, read as one interval: the stage counters behind
	// the shares are sampled on every 16th batch only.
	before := w.host.dp.Stats()
	var wall time.Duration
	var mallocs uint64
	for i := 0; i < tracedRounds; i++ {
		rd := w.nextRound()
		res := w.runRound(rd, true)
		w.checkRound(rep, rd, res)
		wall += res.wall
		mallocs += res.mallocs
		w.ih.seal()
	}
	after := w.host.dp.Stats()
	d := statsDelta(after.Total(), before.Total())
	n := float64(d.Processed)
	shards := float64(len(after.Shards))
	rep.set("dataplane.cache_hit_ratio", float64(d.CacheHits)/n)
	rep.set("dataplane.batch_fill", n/float64(d.Batches))
	var maxShard int64
	for i := range after.Shards {
		if p := after.Shards[i].Processed - before.Shards[i].Processed; p > maxShard {
			maxShard = p
		}
	}
	rep.set("dataplane.shard_imbalance", float64(maxShard)/(n/shards))
	rep.set("dataplane.queue_drop_ratio", float64(d.Dropped)/float64(d.Enqueued))
	rep.set("dataplane.worker_busy_ratio", float64(d.TotalNs)/(float64(wall.Nanoseconds())*shards))
	const stageSampleEvery = 16 // dataplane's stage-sampling period, in batches
	rep.set("dataplane.lookup_share", float64(d.LookupNs)*stageSampleEvery/float64(d.TotalNs))
	rep.set("dataplane.decode_share", float64(d.DecodeNs)*stageSampleEvery/float64(d.TotalNs))
	rep.set("dataplane.chain_share", float64(d.ChainNs)*stageSampleEvery/float64(d.TotalNs))
	rep.set("dataplane.allocs_per_pkt", float64(mallocs)/n)
	rep.set("middlebox.chain_err_ratio", float64(d.ChainErrs)/n)
	exactVerdicts(rep, d)
	w.stageChainNs = float64(d.ChainNs) * stageSampleEvery / n
	if misses := float64(d.Processed - d.CacheHits); misses > 0 {
		w.stageDecodeNs = float64(d.DecodeNs) * stageSampleEvery / misses
	}
	rep.set("openflow.scan_rules_per_miss", w.scanDepth())

	w.window1(rep, 0, 200, nil)
	plain := w.window1(rep, cfg.budget(0.15), 100, nil)
	traced := w.window1(rep, cfg.budget(0.15), 100, cfg.rec)
	rep.set("bench.trace_overhead_ratio", sumRate(traced)/sumRate(plain))
	_, _, p99 := latencySummary(plain, latencySlices)
	rep.setN("bench.lat_p99_us", p99, len(plain))

	rep.Exact["rules"] = int64(w.host.dp.Table().Len())
	rep.InputHash = w.ih.sum()
	return w, nil
}

// setLatency fills the end-to-end latency metrics and notes the p99,
// which is printed but not gated.
func setLatency(rep *report, latUs []float64) {
	p50, p90, p99 := latencySummary(latUs, latencySlices)
	rep.setN("lat_p50_us", p50, len(latUs))
	rep.setN("lat_p90_us", p90, len(latUs))
	rep.Notes = append(rep.Notes, fmt.Sprintf("lat_p99_us %.4f us (diagnostic, not gated) n=%d", p99, len(latUs)))
}

// sumRate is operations per second of back-to-back samples given in µs.
func sumRate(latUs []float64) float64 {
	var total float64
	for _, v := range latUs {
		total += v
	}
	return float64(len(latUs)) / (total / 1e6)
}

// scanDepth is the mean index, in Entries() order, of the first rule
// matching each of the workload's flows: how many rules a cache miss
// walks before it finds its answer.
func (w *packetWorld) scanDepth() float64 {
	entries := w.host.dp.Table().Entries()
	var frames [][]byte
	if w.pool != nil {
		frames = w.pool.frames
	} else {
		for i := 0; i < 1024; i++ {
			frames = append(frames, append([]byte(nil), w.probeFrame()...))
		}
	}
	if len(frames) > 4096 {
		frames = frames[:4096]
	}
	var dec packet.Decoder
	var total int
	for _, f := range frames {
		fields := openflow.ExtractFields(dec.DecodeHeaders(f, packet.LayerTypeIPv4), 0)
		depth := len(entries)
		for i, e := range entries {
			if e.Match.Matches(fields) {
				depth = i
				break
			}
		}
		total += depth
	}
	return float64(total) / float64(len(frames))
}
