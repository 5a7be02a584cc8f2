package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/dataplane"
	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/orchestrator"
	"pvn/internal/overlay"
	"pvn/internal/packet"
	"pvn/internal/pvnc"
	"pvn/internal/tunnel"
)

// The direct-call ladder replays a seeded sample of inputs through each
// layer's public entry points, in the caller's goroutine, and gives
// every layer its own ns and allocs row. It measures each layer from
// outside; the rows stand in for child spans the benchmark cannot see.

const (
	ladderSample = 1024 // frames or texts per row, at scale 1
	ladderReps   = 5    // passes per row; the median pass is reported
	ladderDeploy = 48   // deploy/teardown and connect/audit/teardown walks, at scale 1
)

// ladderSizes are the row sizes of one traced run, scaled like every
// other count.
type ladderSizes struct{ sample, quarter, deploy int }

func sizesFor(cfg runConfig) ladderSizes {
	return ladderSizes{sample: cfg.scaled(ladderSample, 16), quarter: cfg.scaled(ladderSample/4, 8), deploy: cfg.scaled(ladderDeploy, 4)}
}

// ladderWorlds are the worlds the ladder calls into. The traced
// workload hands over the world it built; the rest are built here from
// the same seed with the other workloads' definitions, so every row is
// measured on every workload.
type ladderWorlds struct {
	hdr      *packetWorld // frames for header-level rows
	http     *packetWorld // HTTP frames for decode, chain and switch rows
	sessions *sessionWorld
	disc     *discoveryWorld
	built    []func() // closers of the worlds built here
}

func (lw *ladderWorlds) close() {
	for _, c := range lw.built {
		c()
	}
}

// fill builds whatever the traced workload did not provide.
func (lw *ladderWorlds) fill(cfg runConfig) error {
	sub := func(name string) runConfig {
		c := cfg
		c.spec, _ = findWorkload(name)
		c.rec = nil
		return c
	}
	if lw.http == nil {
		w, err := buildPacketWorld(sub("chain_http"))
		if err != nil {
			return err
		}
		lw.http = w
		lw.built = append(lw.built, w.close)
	}
	if lw.hdr == nil {
		lw.hdr = lw.http
	}
	if lw.sessions == nil {
		w, err := buildSessionWorld(sub("attach_churn"))
		if err != nil {
			return err
		}
		lw.sessions = w
		lw.built = append(lw.built, w.close)
	}
	if lw.disc == nil {
		w, err := buildDiscoveryWorld(sub("overlay_discover"))
		if err != nil {
			return err
		}
		lw.disc = w
	}
	return nil
}

// sampleFrames returns up to max of a packet world's frames in send
// order.
func sampleFrames(w *packetWorld, max int) (frames [][]byte, idx []int) {
	if w.pool == nil {
		for i := 0; i < max; i++ {
			frames = append(frames, append([]byte(nil), w.probeFrame()...))
		}
		return frames, nil
	}
	n := len(w.pool.order)
	if n > max {
		n = max
	}
	for _, i := range w.pool.order[:n] {
		frames = append(frames, w.pool.frames[i])
		idx = append(idx, i)
	}
	return frames, idx
}

// runLadder fills every time and allocs row of perLayer.
func runLadder(cfg runConfig, rep *report, lw *ladderWorlds) error {
	if err := lw.fill(cfg); err != nil {
		return err
	}
	sz := sizesFor(cfg)
	ladderPacket(rep, lw, sz)
	if err := ladderChains(rep, lw.http, sz); err != nil {
		return err
	}
	if err := ladderLoaded(cfg, rep, lw.http); err != nil {
		return err
	}
	ladderTunnel(rep, lw, sz)
	if err := ladderControl(cfg, rep, lw.sessions, sz); err != nil {
		return err
	}
	ladderOverlay(rep, lw.disc, sz)
	return ladderOrchestrator(rep, sz)
}

// ladderPacket: packet, openflow and dataplane rows.
func ladderPacket(rep *report, lw *ladderWorlds, sz ladderSizes) {
	hdr, _ := sampleFrames(lw.hdr, sz.sample)
	httpFrames, _ := sampleFrames(lw.http, sz.sample)

	var dec packet.Decoder
	ns, _ := timeCalls(len(hdr), ladderReps, func(i int) { dec.DecodeHeaders(hdr[i], packet.LayerTypeIPv4) })
	rep.setN("packet.decode_headers_ns", ns, len(hdr))

	ns, allocs := timeCalls(len(httpFrames), ladderReps, func(i int) { packet.Decode(httpFrames[i], packet.LayerTypeIPv4) })
	rep.setN("packet.decode_full_ns", ns, len(httpFrames))
	rep.set("packet.decode_full_allocs", allocs)

	decoded := make([]*packet.Packet, len(hdr))
	for i, f := range hdr {
		decoded[i] = packet.Decode(f, packet.LayerTypeIPv4)
	}
	var sink openflow.PacketFields
	ns, _ = timeCalls(len(decoded), ladderReps, func(i int) { sink = openflow.ExtractFields(decoded[i], 0) })
	_ = sink
	rep.setN("openflow.extract_fields_ns", ns, len(decoded))

	sw := lw.http.host.net.Server.Switch
	ns, allocs = timeCalls(len(httpFrames), ladderReps, func(i int) { sw.Process(httpFrames[i], 0) })
	rep.setN("openflow.switch_process_ns", ns, len(httpFrames))
	rep.set("openflow.switch_process_allocs", allocs)

	// Submit as the caller sees it, workers draining concurrently; the
	// sample fits the queues, so Block never stalls the producer.
	dp := lw.hdr.host.dp
	passes := make([]float64, 0, ladderReps)
	for r := 0; r <= ladderReps; r++ {
		t0 := time.Now()
		for _, f := range hdr {
			dp.Submit(f, 0)
		}
		el := time.Since(t0)
		dp.Drain()
		if r > 0 { // pass 0 warms the buffer pool
			passes = append(passes, float64(el.Nanoseconds())/float64(len(hdr)))
		}
	}
	rep.setN("dataplane.submit_ns", median(passes), len(hdr))

	// Table writes at the session world's resident rule count: each
	// write copies and sorts the whole rule set.
	entries := lw.sessions.host.dp.Table().Entries()
	scratch := dataplane.NewShardedTable()
	legacy := openflow.NewFlowTable()
	for _, e := range entries {
		fe := *e
		scratch.Install(&fe, 0)
		fe2 := *e
		legacy.Install(&fe2, 0)
	}
	const scratchCookie = 1 << 60
	var dpInstall, dpRemove, ofInstall []float64
	for i := 0; i < sz.quarter; i++ {
		rule := func() *openflow.FlowEntry {
			return &openflow.FlowEntry{
				Priority: 90, Cookie: scratchCookie, Actions: []openflow.Action{openflow.Output(1)},
				Match: openflow.Match{Fields: openflow.FieldSrcIP, SrcIP: packet.IPv4Address{172, 16, byte(i >> 8), byte(i)}, SrcBits: 32},
			}
		}
		t0 := time.Now()
		scratch.Install(rule(), 0)
		t1 := time.Now()
		scratch.RemoveByCookie(scratchCookie)
		t2 := time.Now()
		legacy.Install(rule(), 0)
		t3 := time.Now()
		legacy.RemoveByCookie(scratchCookie)
		dpInstall = append(dpInstall, float64(t1.Sub(t0).Nanoseconds()))
		dpRemove = append(dpRemove, float64(t2.Sub(t1).Nanoseconds()))
		ofInstall = append(ofInstall, float64(t3.Sub(t2).Nanoseconds()))
	}
	rep.setN("dataplane.table_install_ns", median(dpInstall), len(dpInstall))
	rep.setN("dataplane.table_remove_ns", median(dpRemove), len(dpRemove))
	rep.setN("openflow.table_install_ns", median(ofInstall), len(ofInstall))
	rep.Exact["ladder_table_rules"] = int64(len(entries))
}

// chainName is the runtime chain key HandleDeploy gives a subscriber's
// "secure" chain.
func chainName(s *subscriber) string { return s.owner + "." + s.id + "/secure" }

// ladderChains: middlebox and mbx rows, on the bare runtime of the
// HTTP world while its pipeline is idle.
func ladderChains(rep *report, w *packetWorld, sz ladderSizes) error {
	rt := w.host.net.Server.Runtime
	frames, idx := sampleFrames(w, sz.sample)
	chains := make([]string, len(frames))
	for k, i := range idx {
		chains[k] = chainName(&w.subs[w.pool.owner[i]])
	}
	ns, allocs := timeCalls(len(frames), ladderReps, func(i int) { rt.ExecuteChain(chains[i], frames[i]) })
	rep.setN("middlebox.execute_chain_ns", ns, len(frames))
	rep.set("middlebox.execute_chain_allocs", allocs)

	// Batches of up to 32 frames of one chain, as a worker groups a
	// drained batch, through the executor pvnd shares between shards.
	const batchSize, batchChains = 32, 32
	groups := map[int][][]byte{}
	for i, f := range w.pool.frames {
		if o := w.pool.owner[i]; o < batchChains && len(groups[o]) < batchSize {
			groups[o] = append(groups[o], f)
		}
	}
	sync := middlebox.Synchronized(rt)
	outs := make([][]byte, batchSize)
	dels := make([]time.Duration, batchSize)
	errs := make([]error, batchSize)
	var batched int
	for _, g := range groups {
		batched += len(g)
	}
	perBatch, _ := timeCalls(len(groups), ladderReps, func(o int) {
		b := groups[o]
		sync.ExecuteChainBatch(chainName(&w.subs[o]), b, outs[:len(b)], dels[:len(b)], errs[:len(b)])
	})
	rep.setN("middlebox.execute_chain_batch_ns", perBatch*float64(len(groups))/float64(batched), batched)

	// One subscriber's clean frames through an empty chain (the
	// isolation check alone) and through each box alone.
	ownerIdx := w.pool.owner[w.pool.clean[0]]
	owner := &w.subs[ownerIdx]
	var own [][]byte
	for i, f := range w.pool.frames {
		if w.pool.owner[i] == ownerIdx && !w.pool.leak[i] {
			own = append(own, f)
		}
	}
	ns0 := owner.owner + ".ladder"
	addrs := []packet.IPv4Address{owner.addr}
	pii, err := rt.Instantiate(owner.owner, "pii-detect", map[string]string{"mode": "block", "secrets": owner.secret})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	trk, err := rt.Instantiate(owner.owner, "tracker-block", map[string]string{"domains": "ads.example,tracker.net"})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for name, ids := range map[string][]string{"len0": nil, "pii": {pii.ID}, "trk": {trk.ID}} {
		if _, err := rt.BuildChainIn(owner.owner, ns0, name, ids, addrs); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	w.host.advance(bootAdvance)
	row := func(chain string) (float64, float64) {
		key := ns0 + "/" + chain
		return timeCalls(len(own)*8, ladderReps, func(i int) { rt.ExecuteChain(key, own[i%len(own)]) })
	}
	len0, _ := row("len0")
	rep.setN("middlebox.chain_len0_ns", len0, len(own)*8)
	ns, allocs = row("pii")
	rep.setN("mbx.pii_detect_ns", ns-len0, len(own)*8)
	rep.set("mbx.pii_detect_allocs", allocs)
	ns, allocs = row("trk")
	rep.setN("mbx.tracker_block_ns", ns-len0, len(own)*8)
	rep.set("mbx.tracker_block_allocs", allocs)

	// What HandleDeploy asks of the runtime for one subscriber.
	var instErr error
	ns, _ = timeCalls(sz.quarter, ladderReps, func(i int) {
		a, err1 := rt.Instantiate(owner.owner, "pii-detect", map[string]string{"mode": "block", "secrets": owner.secret})
		b, err2 := rt.Instantiate(owner.owner, "tracker-block", map[string]string{"domains": "ads.example,tracker.net"})
		if err1 != nil || err2 != nil {
			instErr = fmt.Errorf("ladder instantiate: %v %v", err1, err2)
			return
		}
		if _, err := rt.BuildChainIn(owner.owner, ns0, "tmp", []string{a.ID, b.ID}, addrs); err != nil {
			instErr = err
		}
		rt.RemoveChain(ns0, "tmp")
		if err := rt.Terminate(a.ID); err != nil {
			instErr = err
		}
		if err := rt.Terminate(b.ID); err != nil {
			instErr = err
		}
	})
	rep.setN("middlebox.instantiate_ns", ns, sz.quarter)
	return instErr
}

// ladderLoaded is the open-loop diagnostic: clean HTTP frames offered
// at a fixed rate to a host with the default DropNewest policy, each
// packet timed from when it was due. It is never gated: on a shared
// two-core box its tail swings by an order of magnitude between
// identical runs (GC from ~45 allocs/packet, three runnable goroutines
// on two cores).
func ladderLoaded(cfg runConfig, rep *report, w *packetWorld) error {
	clean := w.pool.clean
	if len(clean) > 4096 {
		clean = clean[:4096]
	}
	// At most one packet per flow is in flight (a flow comes round again
	// after len(clean)/loadedPPS seconds), so the frame's source address
	// and port identify the sample.
	type key struct {
		addr packet.IPv4Address
		port uint16
	}
	slot := make(map[key]int, len(clean))
	frames := make([][]byte, len(clean))
	for k, i := range clean {
		f := w.pool.frames[i]
		frames[k] = f
		slot[key{packet.IPv4Address{f[12], f[13], f[14], f[15]}, uint16(f[20])<<8 | uint16(f[21])}] = k
	}
	due := make([]atomic.Int64, len(frames)) // when the flow's packet was due, ns since start
	seq := make([]atomic.Int64, len(frames)) // which sample it is
	total := cfg.scaled(loadedPPS, 200)      // one second's worth at full scale
	lat := make([]atomic.Int64, total)       // ns, written once by a worker
	start := time.Now()
	tap := func(data []byte) {
		k, ok := slot[key{packet.IPv4Address{data[12], data[13], data[14], data[15]}, uint16(data[20])<<8 | uint16(data[21])}]
		if !ok {
			return
		}
		lat[seq[k].Load()].Store(time.Since(start).Nanoseconds() - due[k].Load())
	}
	h, err := newHost(len(w.subs), dataplane.DropNewest, tap)
	if err != nil {
		return err
	}
	defer h.close()
	if err := h.deployAll(w.subs); err != nil {
		return err
	}
	for i, f := range frames { // warm flow caches and pools without overflowing a queue
		h.dp.Submit(f, 0)
		if i%256 == 255 {
			h.dp.Drain()
		}
	}
	h.dp.Drain()
	warm := h.dp.Stats().Total()

	interval := time.Second / loadedPPS
	var lateMax time.Duration
	var rejected int
	start = time.Now()
	for n := 0; n < total; n++ {
		at := time.Duration(n) * interval
		for time.Since(start) < at {
			runtime.Gosched()
		}
		if late := time.Since(start) - at; late > lateMax {
			lateMax = late
		}
		k := n % len(frames)
		due[k].Store(int64(at))
		seq[k].Store(int64(n))
		if !h.dp.Submit(frames[k], 0) {
			rejected++
		}
	}
	h.dp.Drain()
	st := statsDelta(h.dp.Stats().Total(), warm)
	var us []float64
	for i := range lat {
		if v := lat[i].Load(); v > 0 {
			us = append(us, float64(v)/1e3)
		}
	}
	sort.Float64s(us)
	rep.setN("dataplane.loaded_lat_p50_us", quantile(us, 0.5), len(us))
	rep.setN("dataplane.loaded_lat_p99_us", quantile(us, tailQuantile(len(us))), len(us))
	rep.set("dataplane.loaded_drop_ratio", float64(st.Dropped)/float64(st.Enqueued))
	rep.set("dataplane.gen_late_max_us", float64(lateMax.Nanoseconds())/1e3)
	rep.ops(int64(total))
	// Queue drops are the phase's subject, not failures; a packet that
	// was admitted and then vanished is one.
	rep.expect("loaded phase outputs", st.Outputs, st.Enqueued-st.Dropped)
	rep.expect("loaded phase Submit rejections", int64(rejected), st.Dropped)
	return nil
}

// ladderTunnel: the edge pipeline hands tunnel verdicts to a caller's
// hook, so no workload crosses this layer; the rows are the baseline a
// later tunnel_redirect workload will move.
func ladderTunnel(rep *report, lw *ladderWorlds, sz ladderSizes) {
	frames, _ := sampleFrames(lw.http, sz.sample)
	tbl := tunnel.NewTable(packet.IPv4Address{10, 0, 0, 1})
	tbl.Add(&tunnel.Endpoint{Name: "cloud", Addr: packet.IPv4Address{203, 0, 113, 7}, ExtraRTT: 20 * time.Millisecond, Trusted: true})
	flows := make([]packet.Flow, len(frames))
	for i, f := range frames {
		flows[i], _ = packet.FlowOf(packet.Decode(f, packet.LayerTypeIPv4))
	}
	ns, _ := timeCalls(len(flows), ladderReps, func(i int) { tbl.Route("cloud", flows[i]) })
	rep.setN("tunnel.route_ns", ns, len(flows))
	ns, allocs := timeCalls(len(frames), ladderReps, func(i int) { tbl.Wrap("cloud", frames[i]) })
	rep.setN("tunnel.wrap_ns", ns, len(frames))
	rep.set("tunnel.wrap_allocs", allocs)
}

// ladderControl: pvnc, discovery, deployserver, core, auditor and
// billing rows — the session path walked by hand, one layer per call.
func ladderControl(cfg runConfig, rep *report, sw *sessionWorld, sz ladderSizes) error {
	r := newRNG(cfg.seed ^ 0x1add3)
	fresh := makeSubscribers(firstFreshIndex<<1, sz.quarter, r)
	parsed := make([]*pvnc.PVNC, len(fresh))
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	ns, _ := timeCalls(len(fresh), ladderReps, func(i int) {
		p, err := pvnc.Parse(fresh[i].text)
		keep(err)
		parsed[i] = p
	})
	rep.setN("pvnc.parse_ns", ns, len(fresh))
	parseNs := ns
	if firstErr != nil {
		return firstErr
	}
	ns, _ = timeCalls(len(parsed), ladderReps, func(i int) {
		if errs := parsed[i].Validate(); len(errs) > 0 {
			keep(errs[0])
		}
	})
	rep.setN("pvnc.validate_ns", ns, len(parsed))
	validateNs := ns
	opt := func(i int) pvnc.CompileOptions {
		return pvnc.CompileOptions{Cookie: uint64(i + 1), UpstreamPort: 1, ChainNamespace: fresh[i].owner + "." + fresh[i].id}
	}
	ns, allocs := timeCalls(len(parsed), ladderReps, func(i int) {
		_, err := pvnc.Compile(parsed[i], opt(i))
		keep(err)
	})
	rep.setN("pvnc.compile_ns", ns, len(parsed))
	rep.set("pvnc.compile_allocs", allocs)
	compileNs := ns
	cache := pvnc.NewTemplateCache()
	ns, _ = timeCalls(len(parsed), ladderReps, func(i int) {
		_, err := cache.CompileShared(parsed[i], opt(i))
		keep(err)
	})
	rep.setN("pvnc.compile_shared_ns", ns, len(parsed))

	// Discovery, device side and provider side. The provider's clock
	// moves as it does between attaches, so its offer book stays at its
	// steady size.
	policy := hostProvider()
	var now time.Duration
	negs := make([]*discovery.Negotiator, len(fresh))
	dms := make([]*discovery.DM, len(fresh))
	offers := make([]*discovery.Offer, len(fresh))
	decs := make([]discovery.Decision, len(fresh))
	for i := range fresh {
		negs[i] = discovery.NewNegotiator(fresh[i].id, parsed[i], 1000, discovery.StrategyStrict)
	}
	ns, _ = timeCalls(len(fresh), ladderReps, func(i int) { dms[i] = negs[i].MakeDM() })
	rep.setN("discovery.make_dm_ns", ns, len(fresh))
	ns, _ = timeCalls(len(fresh), ladderReps, func(i int) {
		now += bootAdvance
		offers[i] = policy.HandleDM(dms[i], now)
	})
	rep.setN("discovery.handle_dm_ns", ns, len(fresh))
	ns, _ = timeCalls(len(fresh), ladderReps, func(i int) { decs[i] = negs[i].Evaluate(offers[i], now) })
	rep.setN("discovery.evaluate_ns", ns, len(fresh))
	ns, _ = timeCalls(len(fresh), ladderReps, func(i int) {
		if !decs[i].Accept {
			keep(fmt.Errorf("ladder: offer refused: %s", decs[i].Reason))
			return
		}
		negs[i].BuildDeployRequest(offers[i], decs[i])
	})
	rep.setN("discovery.build_deploy_ns", ns, len(fresh))
	if firstErr != nil {
		return firstErr
	}

	// deployserver at 100 residents and at the session world's count.
	small := sw.cfg
	small.spec.Residents = 100
	w100, err := buildSessionWorld(small)
	if err != nil {
		return err
	}
	deploy100, _, _, err := deployWalk(w100, fresh, sz.deploy)
	w100.close()
	if err != nil {
		return err
	}
	rep.setN("deployserver.handle_deploy_ns_r100", deploy100, sz.deploy)
	deployNs, teardownNs, deployAllocs, err := deployWalk(sw, fresh, sz.deploy)
	if err != nil {
		return err
	}
	rep.setN("deployserver.handle_deploy_ns_r1000", deployNs, sz.deploy)
	rep.set("deployserver.handle_deploy_allocs", deployAllocs)
	rep.setN("deployserver.teardown_ns", teardownNs, sz.deploy)
	srv := sw.host.net.Server
	ns, _ = timeCalls(len(sw.subs), ladderReps, func(i int) {
		if _, ok := srv.Renew(sw.subs[i].id); !ok {
			keep(fmt.Errorf("ladder: renew %s refused", sw.subs[i].id))
		}
	})
	rep.setN("deployserver.renew_ns", ns, len(sw.subs))
	manifestN := len(sw.subs)
	if manifestN > 64 {
		manifestN = 64
	}
	ns, _ = timeCalls(manifestN, ladderReps, func(i int) {
		if srv.BuildManifest(sw.subs[i].id) == nil {
			keep(fmt.Errorf("ladder: no manifest for %s", sw.subs[i].id))
		}
	})
	rep.setN("deployserver.manifest_ns", ns, manifestN)

	// core: Connect, Audit, Teardown on the session world.
	var connect, audit, teardown []float64
	for i := 0; i < sz.deploy; i++ {
		s := &fresh[i%len(fresh)]
		dev := &core.Device{ID: s.id, Addr: s.addr, Config: parsed[i%len(fresh)], BudgetMicro: 1000, Vendors: sw.vendors}
		t0 := time.Now()
		sess, err := core.Connect(dev, sw.nets)
		t1 := time.Now()
		if err != nil || sess.Mode != core.ModeInNetwork {
			return fmt.Errorf("ladder: connect %s: mode=%s err=%v", s.id, sess.Mode, err)
		}
		sw.host.advance(bootAdvance)
		t2 := time.Now()
		keep(sess.Audit(int64(time.Duration(sw.host.clock.Load()) / time.Second)))
		t3 := time.Now()
		_, err = sess.Teardown()
		t4 := time.Now()
		keep(err)
		connect = append(connect, float64(t1.Sub(t0).Nanoseconds()))
		audit = append(audit, float64(t3.Sub(t2).Nanoseconds()))
		teardown = append(teardown, float64(t4.Sub(t3).Nanoseconds()))
	}
	rep.setN("core.connect_ns", median(connect), len(connect))
	rep.setN("core.audit_ns", median(audit), len(audit))
	rep.setN("core.teardown_ns", median(teardown), len(teardown))

	// auditor and billing, called as Session.Audit and Teardown call them.
	att := sw.host.net.Attester
	hash := parsed[0].Hash()
	st := auditor.Statement{Provider: "bench-isp", DeviceID: fresh[0].id, PVNCHash: hash, Nonce: 1}
	var signed *auditor.Attestation
	ns, _ = timeCalls(sz.quarter, ladderReps, func(int) {
		a, err := att.Attest(st)
		keep(err)
		signed = a
	})
	rep.setN("auditor.attest_ns", ns, sz.quarter)
	ns, _ = timeCalls(sz.quarter, ladderReps, func(int) {
		keep(auditor.VerifyAttestation(signed, sw.vendors, hash, 1, 0))
	})
	rep.setN("auditor.verify_ns", ns, sz.quarter)
	tariff := billing.Tariff{PerModuleMicro: map[string]int64{"pii-detect": 100, "tracker-block": 50}, PerMBMicro: 10}
	usage := billing.Usage{User: fresh[0].owner, ModuleTypes: []string{"pii-detect", "tracker-block"}, Bytes: 5 << 20}
	ns, _ = timeCalls(sz.sample, ladderReps, func(int) { billing.GenerateInvoice("bench-isp", tariff, usage) })
	rep.setN("billing.invoice_ns", ns, sz.sample)

	// HandleDeploy's self time: its span minus the rows of the layers it
	// calls (Compile's own Validate is inside compile_ns).
	installs := rulesPerSubscriber * (rep.Metrics["dataplane.table_install_ns"].Value + rep.Metrics["openflow.table_install_ns"].Value)
	children := parseNs + validateNs + compileNs + rep.Metrics["middlebox.instantiate_ns"].Value + installs
	rep.set("deployserver.handle_deploy_self_ns", deployNs-children)
	return firstErr
}

// deployWalk times HandleDeploy and Teardown of fresh subscribers on a
// session world, then counts HandleDeploy's mallocs over a batch that
// is deployed without the teardowns in between.
func deployWalk(w *sessionWorld, fresh []subscriber, walks int) (deployNs, teardownNs, deployAllocs float64, err error) {
	srv := w.host.net.Server
	var deploys, teardowns []float64
	for i := 0; i < walks; i++ {
		s := &fresh[i%len(fresh)]
		req := &discovery.DeployRequest{DeviceID: s.id, PVNCSource: s.text}
		t0 := time.Now()
		resp := srv.HandleDeploy(req)
		t1 := time.Now()
		_, _, tdErr := srv.Teardown(s.id)
		t2 := time.Now()
		if !resp.OK || tdErr != nil {
			return 0, 0, 0, fmt.Errorf("ladder: deploy %s: ok=%v %s teardown=%v", s.id, resp.OK, resp.Reason, tdErr)
		}
		deploys = append(deploys, float64(t1.Sub(t0).Nanoseconds()))
		teardowns = append(teardowns, float64(t2.Sub(t1).Nanoseconds()))
	}
	batch := 16
	if batch > len(fresh) {
		batch = len(fresh)
	}
	m0 := mallocsNow()
	for i := 0; i < batch; i++ {
		s := &fresh[i]
		if resp := srv.HandleDeploy(&discovery.DeployRequest{DeviceID: s.id, PVNCSource: s.text}); !resp.OK {
			return 0, 0, 0, fmt.Errorf("ladder: deploy %s: %s", s.id, resp.Reason)
		}
	}
	deployAllocs = float64(mallocsNow()-m0) / float64(batch)
	for i := 0; i < batch; i++ {
		if _, _, err := srv.Teardown(fresh[i].id); err != nil {
			return 0, 0, 0, err
		}
	}
	return median(deploys), median(teardowns), deployAllocs, nil
}

// ladderOverlay: overlay and netsim rows, over the records and routing
// state of the discovery world.
func ladderOverlay(rep *report, w *discoveryWorld, sz ladderSizes) {
	node := w.ow.nodes[len(w.ow.nodes)-1]
	key := overlay.ServiceKey(overlayService)
	var recs []*overlay.Record
	node.Get(key, func(res overlay.LookupResult) { recs = res.Records })
	w.ow.clock.Run()
	rep.Exact["ladder_overlay_records"] = int64(len(recs))
	if len(recs) == 0 {
		rep.ops(1)
		rep.fail(1, "ladder: no offer records found in the overlay")
		return
	}
	self := node.Self()
	env := &overlay.Envelope{
		Kind: overlay.KindValue, RPC: 1, Target: key, Records: recs,
		From: overlay.PeerInfo{ID: self.ID, Addr: self.Addr, Key: self.Key},
	}
	for _, p := range node.Table().Closest(key, 16) {
		env.Peers = append(env.Peers, overlay.PeerInfo{ID: p.ID, Addr: p.Addr, Key: p.Key})
	}
	var wire []byte
	encNs, encAllocs := timeCalls(sz.quarter, ladderReps, func(int) { wire = env.Encode() })
	rep.setN("overlay.envelope_encode_ns", encNs, sz.quarter)
	var decErr error
	decNs, decAllocs := timeCalls(sz.quarter, ladderReps, func(int) { _, decErr = overlay.DecodeEnvelope(wire) })
	rep.setN("overlay.envelope_decode_ns", decNs, sz.quarter)
	rep.set("overlay.envelope_allocs", encAllocs+decAllocs)
	var verErr error
	ns, _ := timeCalls(sz.quarter, ladderReps, func(i int) { verErr = recs[i%len(recs)].Verify() })
	rep.setN("overlay.record_verify_ns", ns, sz.quarter)
	var adErr error
	ns, _ = timeCalls(sz.quarter, ladderReps, func(i int) { _, adErr = overlay.DecodeOfferAd(recs[i%len(recs)]) })
	rep.setN("overlay.decode_offer_ad_ns", ns, sz.quarter)
	rep.ops(1)
	if decErr != nil || verErr != nil || adErr != nil {
		rep.fail(1, "ladder: overlay decode=%v verify=%v ad=%v", decErr, verErr, adErr)
	}

	var clock netsim.Clock
	ns, _ = timeCalls(sz.sample*16, ladderReps, func(int) {
		clock.Schedule(time.Millisecond, func() {})
		clock.Step()
	})
	rep.setN("netsim.event_ns", ns, sz.sample*16)
}

// ladderOrchestrator: placement solve time, the Bari-style figure of
// merit; no workload crosses this layer yet.
func ladderOrchestrator(rep *report, sz ladderSizes) error {
	var clock netsim.Clock
	cluster := orchestrator.New(orchestrator.Config{Clock: &clock})
	spec := func(i int) orchestrator.HostSpec {
		return orchestrator.HostSpec{
			Name: fmt.Sprintf("edge-%03d", i), FailureDomain: fmt.Sprintf("zone-%d", i%4),
			CPUMilli: 1 << 40, MemBytes: 1 << 50, DelayUs: int64(100 + 7*i),
			CostPerCPUMilli: int64(1 + i%3), CostPerMemMB: 1,
		}
	}
	for i := 0; i < 16; i++ {
		h, err := orchestrator.NewHost(orchestrator.HostParams{
			Spec: spec(i), Clock: &clock, Supported: map[string]int64{"pii-detect": 0, "tracker-block": 0},
		})
		if err != nil {
			return err
		}
		cluster.AddHost(h)
	}
	req := func(n int) orchestrator.ChainRequest {
		return orchestrator.ChainRequest{
			ID: fmt.Sprintf("chain-%d", n), Tenant: fmt.Sprintf("tenant-%d", n%8),
			CPUMilli: 50, MemBytes: 12 << 20, DelayBudgetUs: 5000, AntiAffinityKey: fmt.Sprintf("user-%d", n%64),
		}
	}
	var next int
	var subErr error
	ns, _ := timeCalls(sz.sample, ladderReps, func(int) {
		next++
		if _, err := cluster.Submit(req(next), nil); err != nil && subErr == nil {
			subErr = err
		}
	})
	rep.setN("orchestrator.submit_ns", ns, sz.sample)
	for _, hosts := range []int{16, 256} {
		ctx := &orchestrator.PlaceContext{UsedDomains: map[string]bool{"zone-1": true}}
		for i := 0; i < hosts; i++ {
			ctx.Hosts = append(ctx.Hosts, &orchestrator.HostView{Spec: spec(i), Alive: true, UsedCPU: int64(i * 100)})
		}
		var placer orchestrator.HeuristicPlacer
		ns, _ := timeCalls(sz.sample, ladderReps, func(i int) { placer.Place(req(i), ctx) })
		rep.setN(fmt.Sprintf("orchestrator.place_ns_h%d", hosts), ns, sz.sample)
	}
	return subErr
}
