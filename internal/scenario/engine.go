package scenario

import (
	"bytes"
	"fmt"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/overlay"
	"pvn/internal/store"
)

// Engine drives a World through composed failure storms on the
// simulated clock. Everything runs single-threaded inside clock
// callbacks, so one seed reproduces a run bit-for-bit.
type Engine struct {
	cfg Config
	W   *World

	// rng composes ops, stormRNG jitters storm timelines, renewRNG
	// decides renewal lapses — separate forks so adding draws to one
	// subsystem does not shift the others.
	rng, stormRNG, renewRNG *netsim.RNG

	started bool
	until   time.Duration

	ops, roams, roamFails              int64
	flapRoams, flapFails, flapEpisodes int64
	crashes, sweeps, invoiceCount      int64
	gossipLies                         int64
	fetches, installs, rejects         int64
	evilInstalls, tamperServed         int64

	campaignActive bool
	evilReported   bool
	opsSinceCheck  int

	violations []Violation
	trace      []Event

	weights     []opWeight
	totalWeight int
}

type opWeight struct {
	kind   string
	weight int
}

// quiesceGrace gives in-flight episodes (flap: 80s, campaign: 90s) room
// to finish after the horizon before the strict final check.
const quiesceGrace = 150 * time.Second

// New builds the world and an idle engine over it. Storms start when
// the caller runs Soak (random composition) or schedules scripted
// storms and calls Start/FinishAt.
func New(cfg Config) *Engine {
	if cfg.Networks < 2 || cfg.Devices < 1 {
		panic("scenario: config needs >= 2 networks and >= 1 device")
	}
	root := netsim.NewRNG(cfg.Seed)
	w := buildWorld(cfg, root)
	e := &Engine{
		cfg: cfg, W: w,
		rng: root.Fork(), stormRNG: root.Fork(), renewRNG: root.Fork(),
	}
	weights := cfg.Weights
	if weights == nil {
		weights = defaultWeights
	}
	for _, kind := range opKinds {
		wt := weights[kind]
		if wt <= 0 {
			continue
		}
		switch kind {
		case "flap":
			if cfg.FlapDevices == 0 {
				continue
			}
		case "fetch":
			if cfg.OverlayNodes == 0 {
				continue
			}
		}
		e.weights = append(e.weights, opWeight{kind, wt})
		e.totalWeight += wt
	}
	return e
}

// note appends one trace event, keeping the ring bounded.
func (e *Engine) note(kind, format string, args ...interface{}) {
	if len(e.trace) >= traceCap {
		e.trace = append(e.trace[:0], e.trace[traceCap/2:]...)
	}
	e.trace = append(e.trace, Event{At: e.W.Clock.Now(), Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// violate records an invariant breach (bounded: a genuinely broken
// invariant would otherwise flood every subsequent sweep).
func (e *Engine) violate(invariant, format string, args ...interface{}) {
	if len(e.violations) >= 200 {
		return
	}
	v := Violation{At: e.W.Clock.Now(), Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	e.violations = append(e.violations, v)
	e.note("VIOLATION", "%s: %s", v.Invariant, v.Detail)
}

// Violations returns every invariant breach recorded so far.
func (e *Engine) Violations() []Violation { return e.violations }

// Summary aggregates the run's counters.
func (e *Engine) Summary() Summary {
	s := Summary{
		SimTime: e.W.Clock.Now(), Ops: e.ops,
		Roams: e.roams, RoamFails: e.roamFails + e.flapFails,
		Crashes: e.crashes, Sweeps: e.sweeps, Invoices: e.invoiceCount,
		Fetches: e.fetches, Installs: e.installs, Rejects: e.rejects,
		EvilInstalls: e.evilInstalls, GossipLies: e.gossipLies,
		Violations: len(e.violations),
	}
	for _, d := range e.W.Devs {
		s.Sent += d.sent
		s.Served += d.served
		s.Lost += d.lost
		s.Corrupts += d.corrupts
		if d.flap && d.dev.Tunnels != nil {
			s.Failovers += d.dev.Tunnels.Failovers()
		}
	}
	return s
}

// Start launches the background machinery up to the given horizon:
// heartbeats (measurement traffic) and, with
// leases enabled, the renewal and sweep cadences.
func (e *Engine) Start(until time.Duration) {
	if e.started {
		return
	}
	e.started = true
	e.until = until
	e.W.Clock.At(e.W.Clock.Now()+e.cfg.HeartbeatEvery, func() { e.beatLoop(until) })
	if e.cfg.LeaseTTL > 0 {
		e.W.Clock.At(e.W.Clock.Now()+e.cfg.RenewEvery, func() { e.renewLoop(until) })
		e.W.Clock.At(e.W.Clock.Now()+e.cfg.SweepEvery, func() { e.sweepLoop(until) })
	}
}

func (e *Engine) beatLoop(until time.Duration) {
	e.beat()
	if next := e.W.Clock.Now() + e.cfg.HeartbeatEvery; next <= until {
		e.W.Clock.At(next, func() { e.beatLoop(until) })
	}
}

// beat sends every device's measurement packet(s).
func (e *Engine) beat() {
	for _, d := range e.W.Devs {
		for i := 0; i < e.cfg.TrafficPerBeat; i++ {
			e.tick(d)
		}
	}
}

// tick pushes one packet through whatever serves the device right now
// and does the harness-side accounting: billable bytes (matched rule),
// corruption detection (campaign chains), blackout bookkeeping, and
// vanished-deployment repair.
func (e *Engine) tick(d *device) {
	now := e.W.Clock.Now()
	d.sent++
	d.lastBeat = now
	serving := d.sess
	if d.hand != nil {
		serving = d.hand.Steer(d.tmpl)
	}
	disp, err := serving.Process(d.tmpl, 0)
	if err == nil && disp.Entry != nil {
		// The switch meters at rule lookup, whatever happens after — a
		// chain that then drops the packet (middlebox still booting, a
		// campaign box panicking) still costs the user those bytes, so
		// the drift ledger must count them billable too.
		d.billable += int64(len(d.tmpl))
	}
	ok := false
	switch {
	case err != nil:
	case disp.Verdict == openflow.VerdictOutput:
		ok = true
		if disp.Entry != nil && d.campaign && !bytes.Equal(disp.Data, d.tmpl) {
			d.corrupts++
			e.W.Ledger.RecordViolation(auditor.Violation{
				Kind: auditor.ViolationContentMod, Provider: serving.Network.Name,
				Detail: "payload modified in chain", At: now,
			})
		}
	case disp.Verdict == openflow.VerdictTunnel:
		inj := d.paths[disp.TunnelName]
		ok = inj == nil || !inj.Down(now)
	case disp.Verdict == openflow.VerdictController:
		// Table miss: the deployment this session believes in is gone
		// (lease swept, or the provider crashed and reclaimed).
		e.maybeRepair(d)
	}
	if ok {
		if gap := now - d.lastServed; gap > d.maxGap {
			d.maxGap = gap
		}
		d.lastServed = now
		d.served++
	} else {
		d.lost++
	}
}

// maybeRepair schedules a reconnect once the device's deployment has
// verifiably vanished. The delay models detection/backoff; the
// blackout invariant bounds the resulting outage.
func (e *Engine) maybeRepair(d *device) {
	if d.hand != nil || d.repairPending || d.sess == nil {
		return
	}
	if d.sess.Mode != core.ModeInNetwork {
		return
	}
	if d.sess.Network.Server.Deployment(d.id) != nil {
		return // deployment still booked: transient, not a vanish
	}
	d.repairPending = true
	e.note("repair", "%s lost its deployment on %s, reconnecting in %v",
		d.id, d.sess.Network.Name, e.cfg.RepairDelay)
	e.W.Clock.Schedule(e.cfg.RepairDelay, func() { e.reconnect(d) })
}

// reconnect re-attaches the device across all networks. A cut control
// channel can leave it bare or tunneled; it keeps retrying until it
// lands in-network again (bare still serves beats — connectivity
// without protection — so this is policy repair, not blackout repair).
func (e *Engine) reconnect(d *device) {
	d.repairPending = false
	if d.hand != nil {
		d.busy = false
		return
	}
	s, err := core.Connect(d.dev, e.W.Nets)
	d.sess = s
	d.busy = false
	if err != nil || s.Mode != core.ModeInNetwork {
		d.repairPending = true
		e.W.Clock.Schedule(30*time.Second, func() { e.reconnect(d) })
		return
	}
	e.note("reconnect", "%s back in-network on %s", d.id, s.Network.Name)
}

func (e *Engine) renewLoop(until time.Duration) {
	now := e.W.Clock.Now()
	for _, d := range e.W.Devs {
		if now < d.muteUntil {
			continue // gone dark: renewals missed until the lease lapses
		}
		if e.renewRNG.Float64() < e.cfg.RenewSkipRate {
			d.muteUntil = now + e.cfg.LeaseTTL + e.cfg.RenewEvery
			e.note("renew-mute", "%s goes dark until %v (lease will lapse)", d.id, d.muteUntil)
			continue
		}
		for _, s := range d.attachments() {
			if s.Mode == core.ModeInNetwork {
				s.Network.Server.Renew(d.id)
			}
		}
	}
	if next := now + e.cfg.RenewEvery; next <= until {
		e.W.Clock.At(next, func() { e.renewLoop(until) })
	}
}

func (e *Engine) sweepLoop(until time.Duration) {
	e.sweepOnce()
	if next := e.W.Clock.Now() + e.cfg.SweepEvery; next <= until {
		e.W.Clock.At(next, func() { e.sweepLoop(until) })
	}
}

// sweepOnce reclaims lapsed leases on every network; the swept usage is
// forfeited (the provider never invoices it), which the invoice-drift
// invariant accounts exactly.
func (e *Engine) sweepOnce() {
	for _, n := range e.W.Nets {
		for _, f := range n.Server.SweepExpired() {
			if d := e.W.devByID[f.DeviceID]; d != nil {
				d.forfeited += f.Bytes
			}
			e.sweeps++
			e.note("sweep", "%s lease lapsed on %s, %d bytes forfeited", f.DeviceID, n.Name, f.Bytes)
		}
	}
}

// noteInvoice credits a teardown/handover invoice to the device's drift
// ledger: the traffic line is exactly 1 micro per byte, so subtracting
// the fixed per-module charges recovers the invoiced byte count.
func (e *Engine) noteInvoice(d *device, s *core.Session, inv *billing.Invoice) {
	if inv == nil {
		return
	}
	var moduleMicro int64
	for _, m := range s.Decision.FinalConfig.Middleboxes {
		moduleMicro += s.Network.Tariff.PerModuleMicro[m.Type]
	}
	d.invoiced += inv.TotalMicro - moduleMicro
	e.invoiceCount++
	e.note("invoice", "%s invoiced %d traffic bytes by %s", d.id, inv.TotalMicro-moduleMicro, s.Network.Name)
}

// FlapDeviceIdxs lists the multihomed devices eligible for FlapEpisode.
func (e *Engine) FlapDeviceIdxs() []int {
	var out []int
	for _, d := range e.W.Devs {
		if d.flap {
			out = append(out, d.idx)
		}
	}
	return out
}

// AttachedCount reports how many devices are currently in-network on
// Nets[netIdx] — scripted storms use it (via a scheduled closure,
// before quiesce tears everything down) to verify an evacuation.
func (e *Engine) AttachedCount(netIdx int) int {
	n := 0
	for _, d := range e.W.Devs {
		for _, s := range d.attachments() {
			if s.Mode == core.ModeInNetwork && e.W.netIdx[s.Network] == netIdx {
				n++
				break
			}
		}
	}
	return n
}

// curNetIdx locates the device's current network (bare and tunneled
// sessions keep their primary network pointer).
func (e *Engine) curNetIdx(d *device) int {
	if d.sess != nil {
		if i, ok := e.W.netIdx[d.sess.Network]; ok {
			return i
		}
	}
	return -1
}

// pickIdle draws up to eight candidates and returns the first device
// not owned by another episode (nil when the population is saturated).
func (e *Engine) pickIdle(pred func(*device) bool) *device {
	for try := 0; try < 8; try++ {
		d := e.W.Devs[e.rng.Intn(len(e.W.Devs))]
		if d.busy || d.repairPending || d.sess == nil || d.hand != nil {
			continue
		}
		if pred == nil || pred(d) {
			return d
		}
	}
	return nil
}

// Soak runs the random composition mode for simTime: background beats
// plus weighted random storms, with the invariant sweep every
// CheckEveryOps events and a strict check at quiesce.
func (e *Engine) Soak(simTime time.Duration) {
	horizon := e.W.Clock.Now() + simTime
	e.Start(horizon)
	for {
		gap := time.Duration(e.rng.Exp(float64(e.cfg.MeanOpInterval)))
		next := e.W.Clock.Now() + gap
		if next >= horizon {
			break
		}
		e.W.Clock.RunUntil(next)
		e.doRandomOp()
		e.ops++
		e.opsSinceCheck++
		if e.opsSinceCheck >= e.cfg.CheckEveryOps {
			e.opsSinceCheck = 0
			e.checkAll(false)
		}
	}
	e.FinishAt(horizon)
}

// FinishAt advances to the horizon and quiesces: pending handovers
// complete, episodes drain, every session is torn down and invoiced,
// and the strict invariant check runs.
func (e *Engine) FinishAt(horizon time.Duration) {
	e.W.Clock.RunUntil(horizon)
	e.Quiesce()
}

// doRandomOp draws one weighted storm/churn event.
func (e *Engine) doRandomOp() {
	r := e.rng.Intn(e.totalWeight)
	kind := e.weights[len(e.weights)-1].kind
	for _, w := range e.weights {
		if r < w.weight {
			kind = w.kind
			break
		}
		r -= w.weight
	}
	switch kind {
	case "roam":
		e.opRoam()
	case "flap":
		e.opFlap()
	case "crash":
		e.opCrash()
	case "campaign":
		e.CampaignPulse()
	case "fetch":
		e.opFetch()
	case "detach":
		e.opDetach()
	}
}

// opRoam starts one make-before-break handover to a different network.
func (e *Engine) opRoam() {
	d := e.pickIdle(nil)
	if d == nil {
		return
	}
	target := e.rng.Intn(len(e.W.Nets))
	if target == e.curNetIdx(d) {
		target = (target + 1) % len(e.W.Nets)
	}
	e.beginRoam(d, target, 0)
}

// beginRoam starts the handover; retries (scripted storms use them so
// a lossy control channel only delays, never cancels, the evacuation).
func (e *Engine) beginRoam(d *device, target, retries int) {
	if d.hand != nil || d.sess == nil {
		return
	}
	h, err := core.BeginRoam(d.sess, []*core.AccessNetwork{e.W.Nets[target]}, core.RoamOptions{
		DrainDeadline: e.cfg.DrainDeadline,
	})
	if err != nil {
		e.roamFails++
		e.note("roam-fail", "%s -> %s: %v", d.id, e.W.Nets[target].Name, err)
		if retries > 0 {
			e.W.Clock.Schedule(5*time.Second, func() { e.beginRoam(d, target, retries-1) })
		}
		return
	}
	d.hand = h
	d.sess = nil
	d.busy = true
	e.note("roam", "%s handover to %s (%s)", d.id, h.New.Network.Name, h.New.Mode)
	e.W.Clock.Schedule(e.cfg.DrainDeadline+3*time.Second, func() { e.completeHandover(d) })
}

// completeHandover retires the old session and credits its invoice. A
// completion error means the old deployment vanished mid-drain (swept
// or crashed) — its bytes were already forfeited there, so the drift
// ledger stays exact with no invoice.
func (e *Engine) completeHandover(d *device) {
	h := d.hand
	if h == nil {
		return
	}
	inv, err := h.Complete()
	d.sess = h.New
	d.hand = nil
	d.busy = false
	if err != nil {
		e.roamFails++
		e.note("roam-complete-fail", "%s: %v", d.id, err)
		return
	}
	e.roams++
	e.noteInvoice(d, h.Old, inv)
	e.note("roam-done", "%s now on %s (%s)", d.id, h.New.Network.Name, h.New.Mode)
}

// opCrash crashes one provider (deployserver.Server.Crash) and credits
// each device's forfeited usage to its drift ledger.
func (e *Engine) opCrash() {
	n := e.W.Nets[e.rng.Intn(len(e.W.Nets))]
	forfeits, rules, meters, chains, insts := n.Server.Crash()
	for _, f := range forfeits {
		if d := e.W.devByID[f.DeviceID]; d != nil {
			d.forfeited += f.Bytes
			e.note("crash-forfeit", "%s forfeits %d bytes on %s", f.DeviceID, f.Bytes, n.Name)
		}
	}
	e.crashes++
	e.note("crash", "%s restarted; reclaimed %d rules %d meters %d chains %d instances",
		n.Name, rules, meters, chains, insts)
}

// opDetach politely tears a device down (exact invoice) and returns it
// after a gap — the lease-book churn a polite departure causes.
func (e *Engine) opDetach() {
	d := e.pickIdle(func(d *device) bool { return d.sess.Mode == core.ModeInNetwork })
	if d == nil {
		return
	}
	inv, err := d.sess.Teardown()
	if err != nil {
		e.note("detach-fail", "%s: %v", d.id, err)
		return
	}
	e.noteInvoice(d, d.sess, inv)
	d.busy = true
	e.note("detach", "%s detached from %s", d.id, d.sess.Network.Name)
	e.W.Clock.Schedule(20*time.Second, func() { e.reconnect(d) })
}

// opFetch fetches the published module through the overlay into a
// fresh store, re-verifying signature and content key — the check that
// makes replica tampering harmless.
func (e *Engine) opFetch() {
	ow := e.W.Over
	if ow == nil {
		return
	}
	st := store.New()
	st.RegisterPublisher("acme", ow.pub.Public)
	e.fetches++
	// Tampered replica answers are dropped at the lookup merge (the
	// forged signature fails Verify there), so most campaign rejections
	// surface as the looker's BadRecords delta rather than as install
	// failures.
	before := ow.devNode.Stats.BadRecords
	ow.devNode.Get(ow.modKey, func(r overlay.LookupResult) {
		e.rejects += int64(ow.devNode.Stats.BadRecords - before)
		for _, rec := range r.Records {
			m, err := overlay.DecodeModuleRecord(rec)
			if err != nil {
				e.rejects++
				continue
			}
			if err := st.InstallRemote("owner-soak", m, ow.modKey.String()); err != nil {
				e.rejects++
				continue
			}
			e.installs++
			if m.Config["list"] == "exfil.example" {
				e.evilInstalls++
			}
		}
	})
}

// Quiesce winds the world down and runs the strict invariant check:
// probers stop, pending handovers complete, in-flight episodes drain
// through a grace window, every session is torn down and invoiced, and
// a final sweep mops lapsed leases.
func (e *Engine) Quiesce() {
	for _, d := range e.W.Devs {
		if d.probing {
			d.prober.Stop()
			d.probing = false
		}
	}
	for _, d := range e.W.Devs {
		if d.hand != nil {
			e.completeHandover(d)
		}
	}
	e.clearCampaign()
	e.W.Clock.RunFor(quiesceGrace)
	for _, d := range e.W.Devs {
		if d.probing {
			d.prober.Stop()
			d.probing = false
		}
		if d.hand != nil {
			e.completeHandover(d)
		}
	}
	for _, d := range e.W.Devs {
		if d.sess == nil {
			continue
		}
		s := d.sess
		if s.Mode != core.ModeInNetwork {
			_, _ = s.Teardown()
			continue
		}
		inv, err := s.Teardown()
		if err != nil {
			// Deployment already gone; its usage was forfeited when it
			// was swept or crashed.
			e.note("final-teardown", "%s: %v", d.id, err)
			continue
		}
		e.noteInvoice(d, s, inv)
	}
	e.sweepOnce()
	e.checkAll(true)
}
