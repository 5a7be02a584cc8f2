package main

import (
	"time"

	"pvn/internal/core"
	"pvn/internal/dataplane"
	"pvn/internal/discovery"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
)

// opLoop is the closed loop the session and discovery workloads share:
// one client runs rounds of roundOps operations back to back; prepare
// generates a round's inputs before its clock starts, do runs operation
// i of the round and returns its latency in µs.
type opLoop struct {
	roundOps int
	prepare  func(n int)
	do       func(i int, op int64, rec *recorder) float64
	// afterRound, when set, runs (untimed) after measured round n.
	afterRound func(n int)
}

type opLoopResult struct {
	rates []float64 // operations per wall second, one per round
	cpu   time.Duration
	ops   int64
	lat   []float64 // µs per operation, in order
}

// run executes at least minRounds rounds and then rounds until budget
// is spent. firstOp numbers the operations for span records.
func (l *opLoop) run(budget time.Duration, rec *recorder, firstOp int64) opLoopResult {
	var res opLoopResult
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		l.prepare(l.roundOps)
		cpu0 := cpuNow()
		t0 := time.Now()
		for i := 0; i < l.roundOps; i++ {
			res.lat = append(res.lat, l.do(i, firstOp+res.ops+int64(i), rec))
		}
		wall := time.Since(t0)
		res.cpu += cpuNow() - cpu0
		res.ops += int64(l.roundOps)
		res.rates = append(res.rates, float64(l.roundOps)/wall.Seconds())
		if l.afterRound != nil {
			l.afterRound(n)
		}
	}
	return res
}

// warm runs one untimed round; its operations are still held against
// the oracle.
func (l *opLoop) warm() {
	l.prepare(l.roundOps)
	for i := 0; i < l.roundOps; i++ {
		l.do(i, int64(-1-i), nil)
	}
}

// traceRows fills the two per-layer rows a traced pass takes from its
// loops: what the spans cost, and the spans-off p99.
func (res opLoopResult) traceRows(rep *report, traced opLoopResult) {
	rep.set("bench.trace_overhead_ratio", median(traced.rates)/median(res.rates))
	_, _, p99 := latencySummary(res.lat, latencySlices)
	rep.setN("bench.lat_p99_us", p99, len(res.lat))
}

// endToEnd fills the shared end-to-end metrics from a loop's result.
func (res opLoopResult) endToEnd(rep *report) {
	rep.setN("ops_per_s", quietQuartile(res.rates, true), len(res.rates))
	rep.setN("cpu_ns_per_op", float64(res.cpu.Nanoseconds())/float64(res.ops), int(res.ops))
	setLatency(rep, res.lat)
}

// firstFreshIndex numbers the subscribers that attach during the run,
// well clear of any resident.
const firstFreshIndex = 1 << 20

// sessionInput is one attach: a subscriber no one has seen and the
// first clean HTTP request it will send.
type sessionInput struct {
	sub   subscriber
	first []byte
}

// sessionWorld is the attach_churn world: a host full of residents, a
// burst of resident traffic to replay after every attach, and a stream
// of fresh subscribers.
type sessionWorld struct {
	cfg      runConfig
	host     *host
	subs     []subscriber
	r        *rng
	ih       *inputHash
	nets     []*core.AccessNetwork
	vendors  *pki.TrustStore
	burst    [][]byte
	baseline int
	fresh    int
	inputs   []sessionInput

	burstWall    time.Duration
	burstPackets int64
}

func buildSessionWorld(cfg runConfig) (*sessionWorld, error) {
	r := newRNG(cfg.seed)
	w := &sessionWorld{cfg: cfg, r: r, ih: newInputHash()}
	residents := cfg.scaled(cfg.spec.Residents, 8)
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
	w.nets = []*core.AccessNetwork{w.host.net}
	w.vendors = pki.NewTrustStore(w.host.vendor.Cert)
	w.baseline = w.host.dp.Table().Len()
	// The burst: burstPackets 64-byte segments to port 443 spread over
	// Flows flows of seeded residents.
	flows := make([][]byte, cfg.spec.Flows)
	for f := range flows {
		sub := &w.subs[r.intn(len(w.subs))]
		flows[f] = tcpFrame(sub.addr, serverAddr(r), uint16(30000+f), 443, 64, r)
		w.ih.add(flows[f])
	}
	for i := 0; i < burstPackets; i++ {
		w.burst = append(w.burst, flows[i%len(flows)])
	}
	return w, nil
}

func (w *sessionWorld) close() { w.host.close() }

// prepare generates the next n fresh subscribers and their first
// requests.
func (w *sessionWorld) prepare(n int) {
	w.inputs = w.inputs[:0]
	for i := 0; i < n; i++ {
		sub := makeSubscriber(firstFreshIndex+w.fresh, w.r)
		w.fresh++
		first := httpFrame(&sub, serverAddr(w.r), 40000, 200+w.r.intn(1201), false, w.r)
		w.ih.addString(sub.text)
		w.ih.add(first)
		w.inputs = append(w.inputs, sessionInput{sub: sub, first: first})
	}
}

// session runs one complete attach and returns its attach latency in
// µs: from core.Connect's entry (the first DM) to the new subscriber's
// first packet observed at OnOutput. The simulated 30 ms boot is
// skipped by advancing the injected clock, so this is CPU the host
// spends, not modelled delay. Any departure from the oracle fails the
// session (one operation).
func (w *sessionWorld) session(rep *report, in *sessionInput, op int64, rec *recorder) float64 {
	h := w.host
	rep.ops(1)
	before := h.dp.Stats().Total()
	root := rec.begin("session", -1, op)
	defer rec.end(root)

	t0 := time.Now()
	sp := rec.begin("pvnc.parse", root, op)
	cfg, err := pvnc.Parse(in.sub.text)
	rec.end(sp)
	if err != nil {
		rep.fail(1, "session %d: parse: %v", op, err)
		return 0
	}
	dev := &core.Device{
		ID: in.sub.id, Addr: in.sub.addr, Config: cfg,
		BudgetMicro: 1000, Strategy: discovery.StrategyStrict, Vendors: w.vendors,
	}
	sp = rec.begin("core.connect", root, op)
	sess, err := core.Connect(dev, w.nets)
	rec.end(sp)
	if err != nil || sess.Mode != core.ModeInNetwork {
		rep.fail(1, "session %d: connect: mode=%s err=%v", op, sess.Mode, err)
		return 0
	}
	h.advance(bootAdvance)
	sp = rec.begin("packet.first", root, op)
	seen := h.outputs.Load()
	h.dp.Submit(in.first, 0)
	firstOK := h.awaitOutputs(seen + 1)
	rec.end(sp)
	attachUs := float64(time.Since(t0).Nanoseconds()) / 1e3

	// Reads right after the write that bumped the rule generation.
	sp = rec.begin("dataplane.burst", root, op)
	tb := time.Now()
	for _, f := range w.burst {
		h.dp.Submit(f, 0)
	}
	h.dp.Drain()
	w.burstWall += time.Since(tb)
	w.burstPackets += int64(len(w.burst))
	rec.end(sp)

	sp = rec.begin("core.audit", root, op)
	auditErr := sess.Audit(int64(time.Duration(h.clock.Load()) / time.Second))
	rec.end(sp)
	sp = rec.begin("core.teardown", root, op)
	_, tdErr := sess.Teardown()
	rec.end(sp)

	d := statsDelta(h.dp.Stats().Total(), before)
	sent := int64(1 + len(w.burst))
	switch {
	case !firstOK:
		rep.fail(1, "session %d: first packet never reached OnOutput", op)
	case auditErr != nil:
		rep.fail(1, "session %d: audit: %v", op, auditErr)
	case tdErr != nil:
		rep.fail(1, "session %d: teardown: %v", op, tdErr)
	case h.dp.Table().Len() != w.baseline:
		rep.fail(1, "session %d: %d rules left, baseline %d", op, h.dp.Table().Len(), w.baseline)
	case d.Outputs != sent || d.Processed != sent || d.Drops+d.PacketIns+d.ChainErrs+d.Dropped != 0:
		rep.fail(1, "session %d: packet counters %+v, oracle %d outputs", op, d, sent)
	}
	return attachUs
}

func (w *sessionWorld) loop(rep *report) *opLoop {
	return &opLoop{
		roundOps: w.cfg.scaled(w.cfg.spec.RoundOps, 4),
		prepare:  w.prepare,
		do: func(i int, op int64, rec *recorder) float64 {
			return w.session(rep, &w.inputs[i], op, rec)
		},
	}
}

// runSessions is an untraced attach_churn run.
func runSessions(cfg runConfig) (*report, error) {
	rep := newReport(cfg.spec.Name, cfg.seed, false)
	w, setup, err := setupRepeated(cfg, buildSessionWorld, (*sessionWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep.setN("setup_s", setup, setupRepeats)

	l := w.loop(rep)
	l.warm()
	l.afterRound = func(n int) {
		w.ih.seal()
		if n+1 == heapAfterRounds {
			rep.set("heap_live_mb", heapLiveMB())
			rep.Exact["sessions_before_heap"] = int64(w.fresh)
		}
	}
	res := l.run(cfg.budget(1), nil, 0)
	res.endToEnd(rep)
	rep.Exact["rules"] = int64(w.host.dp.Table().Len())
	rep.Exact["baseline_rules"] = int64(w.baseline)
	rep.InputHash = w.ih.sum()
	return rep, nil
}

// tracedSessions is attach_churn's own traced pass.
func tracedSessions(cfg runConfig, rep *report) (*sessionWorld, error) {
	w, err := buildSessionWorld(cfg)
	if err != nil {
		return nil, err
	}
	l := w.loop(rep)
	l.warm()
	w.burstWall, w.burstPackets = 0, 0
	l.afterRound = func(int) { w.ih.seal() }
	before := w.host.dp.Stats().Total()
	m0 := mallocsNow()
	plain := l.run(cfg.budget(0.15), nil, 0)
	mallocs := mallocsNow() - m0
	d := statsDelta(w.host.dp.Stats().Total(), before)
	n := float64(d.Processed)
	rep.set("dataplane.cache_hit_ratio", float64(d.CacheHits)/n)
	rep.set("dataplane.batch_fill", n/float64(d.Batches))
	rep.set("dataplane.queue_drop_ratio", float64(d.Dropped)/float64(d.Enqueued))
	rep.set("dataplane.allocs_per_pkt", float64(mallocs)/n)
	rep.set("middlebox.chain_err_ratio", float64(d.ChainErrs)/n)
	rep.set("dataplane.burst_rate_pps", float64(w.burstPackets)/w.burstWall.Seconds())
	traced := l.run(cfg.budget(0.15), cfg.rec, plain.ops)
	plain.traceRows(rep, traced)
	rep.Exact["rules"] = int64(w.host.dp.Table().Len())
	rep.Exact["baseline_rules"] = int64(w.baseline)
	rep.InputHash = w.ih.sum()
	return w, nil
}
