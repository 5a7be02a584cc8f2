package scenario

import (
	"fmt"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/core"
	"pvn/internal/netsim"
	"pvn/internal/overlay"
	"pvn/internal/store"
	"pvn/internal/tunnel"
)

// --- roam storm -----------------------------------------------------

// ScheduleRoamStorm evacuates the whole device population off whatever
// network each device is on, at jittered instants inside
// [from, from+window) — the stadium/train scenario. Each roam is
// make-before-break with retries, so a lossy control channel delays the
// evacuation instead of cancelling it.
func (e *Engine) ScheduleRoamStorm(from, window time.Duration) {
	for _, d := range e.W.Devs {
		d := d
		at := from + time.Duration(e.stormRNG.Float64()*float64(window))
		target := e.stormRNG.Intn(len(e.W.Nets))
		e.W.Clock.At(at, func() {
			cur := e.curNetIdx(d)
			t := target
			if t == cur {
				t = (t + 1) % len(e.W.Nets)
			}
			e.beginRoam(d, t, 5)
		})
	}
	e.note("storm", "roam storm scheduled: %d devices in [%v, %v)", len(e.W.Devs), from, from+window)
}

// --- cellular<->WiFi flap -------------------------------------------

// flapSchedule is the episode's internal timeline (offsets from start).
var flapSchedule = struct {
	outA1, outA2, outB  netsim.Outage
	pathCloud, pathHome netsim.Outage
	roams               []time.Duration
	tickEvery           time.Duration
	length              time.Duration
}{
	outA1:     netsim.Outage{From: 10 * time.Second, Until: 50 * time.Second},
	outA2:     netsim.Outage{From: 45 * time.Second, Until: 65 * time.Second}, // overlaps outA1 on the same injector
	outB:      netsim.Outage{From: 12 * time.Second, Until: 70 * time.Second}, // overlaps both across networks
	pathCloud: netsim.Outage{From: 25 * time.Second, Until: 45 * time.Second},
	pathHome:  netsim.Outage{From: 58 * time.Second, Until: 72 * time.Second},
	roams:     []time.Duration{15 * time.Second, 35 * time.Second, 55 * time.Second, 75 * time.Second},
	tickEvery: 5 * time.Second,
	length:    80 * time.Second,
}

// opFlap picks an idle multihomed device and runs one flap episode.
func (e *Engine) opFlap() {
	d := e.pickIdle(func(d *device) bool { return d.flap })
	if d == nil {
		return
	}
	e.FlapEpisode(d.idx)
}

// FlapEpisode runs one cellular<->WiFi flap on the multihomed device
// at devIdx: overlapping control-channel outage windows land on two
// networks (and stack on one of them — live exercise of FaultInjector
// window composition), the device's primary tunnel path crashes while
// a health prober drives failover, and the device roams back and forth
// four times through the storm.
func (e *Engine) FlapEpisode(devIdx int) {
	d := e.W.Devs[devIdx]
	if !d.flap || d.busy || d.hand != nil || d.sess == nil {
		return
	}
	d.busy = true
	e.flapEpisodes++
	now := e.W.Clock.Now()
	a := e.curNetIdx(d)
	if a < 0 {
		a = 0
	}
	b := (a + 1) % len(e.W.Nets)
	sh := flapSchedule
	shift := func(o netsim.Outage) netsim.Outage {
		return netsim.Outage{From: now + o.From, Until: now + o.Until}
	}
	e.W.Nets[a].Faults.AddOutage(shift(sh.outA1))
	e.W.Nets[a].Faults.AddOutage(shift(sh.outA2))
	e.W.Nets[b].Faults.AddOutage(shift(sh.outB))
	d.paths["cloud-"+d.id].AddOutage(shift(sh.pathCloud))
	d.paths["home-"+d.id].AddOutage(shift(sh.pathHome))

	// A fresh prober per episode: Stop is terminal on a Prober, and the
	// probe ladder should start cold each storm anyway.
	d.prober = tunnel.NewProber(d.dev.Tunnels, e.W.Clock)
	for name, inj := range d.paths {
		d.prober.SetPath(name, inj)
	}
	d.prober.Start()
	d.probing = true

	targets := []int{b, a, b, a}
	for i, dt := range sh.roams {
		t := targets[i]
		e.W.Clock.Schedule(dt, func() { e.flapRoam(d, t) })
	}
	// The flapping user keeps using the network through the storm: extra
	// traffic ticks at a tight cadence pin the beat flow to the primary
	// tunnel path while it is alive, so the path crash exercises a real
	// flow re-pin (failover) rather than a fresh pick.
	for dt := sh.tickEvery; dt < sh.length; dt += sh.tickEvery {
		e.W.Clock.Schedule(dt, func() { e.tick(d) })
	}
	e.W.Clock.Schedule(sh.length, func() {
		if d.probing {
			d.prober.Stop()
			d.probing = false
		}
		d.busy = false
		e.note("flap-end", "%s episode over", d.id)
	})
	e.note("flap", "%s flapping between %s and %s under composed outages",
		d.id, e.W.Nets[a].Name, e.W.Nets[b].Name)
}

// flapRoam is one leg of a flap: an immediate (no-drain) roam. With the
// target's control channel inside an outage window the device lands on
// its tunnel instead — and if the tunnel's primary path is down too,
// the prober's failover carries the beats.
func (e *Engine) flapRoam(d *device, target int) {
	if d.hand != nil || d.sess == nil {
		return
	}
	old := d.sess
	s2, inv, err := core.RoamWith(old, []*core.AccessNetwork{e.W.Nets[target]},
		core.RoamOptions{DrainDeadline: -1})
	d.sess = s2
	if err != nil {
		e.flapFails++
		e.note("flap-roam-fail", "%s -> %s: %v", d.id, e.W.Nets[target].Name, err)
		return
	}
	e.roams++
	e.flapRoams++
	e.noteInvoice(d, old, inv)
	e.note("flap-roam", "%s now on %s (%s)", d.id, s2.Network.Name, s2.Mode)
}

// --- adversarial provider campaign ----------------------------------

// campaignLength bounds one pulse; clearCampaign at the end is
// idempotent so quiesce can force it early.
const campaignLength = 90 * time.Second

// CampaignPulse runs one coordinated adversarial-provider campaign:
// the colluding (last) network cuts its control channel in two
// overlapping windows, its deployed FaultyBoxes keep panicking and
// corrupting campaign devices' traffic (they do that continuously —
// the pulse is when the rest of the collusion lines up), its overlay
// replicas serve tampered module records, and a colluding node gossips
// fabricated violations against every honest provider.
func (e *Engine) CampaignPulse() {
	if e.campaignActive {
		return
	}
	e.campaignActive = true
	now := e.W.Clock.Now()
	col := e.W.Nets[len(e.W.Nets)-1]
	jit := time.Duration(e.stormRNG.Float64() * float64(10*time.Second))
	col.Faults.AddOutage(netsim.Outage{From: now + 5*time.Second + jit, Until: now + 40*time.Second + jit})
	col.Faults.AddOutage(netsim.Outage{From: now + 25*time.Second + jit, Until: now + 70*time.Second + jit})

	if ow := e.W.Over; ow != nil {
		evil := ow.evil
		for _, i := range ow.colluding {
			n := ow.nodes[i]
			n.TamperStored = func(r *overlay.Record) *overlay.Record {
				if r.Kind != overlay.RecordModule {
					return nil
				}
				tm, err := store.DecodeModule(r.Body)
				if err != nil {
					return nil
				}
				tm.Config = map[string]string{"list": "exfil.example"}
				tm.Sign(evil.Private)
				bad := *r
				// Forge a "newer" version so the lookup's per-publisher
				// dedup prefers the tampered copy over honest replicas —
				// the device's re-verification is the only defence left.
				bad.Seq = r.Seq + 1
				bad.Body = tm.Encode()
				bad.PublicKey = evil.Public
				bad.Sign(evil.Private)
				e.tamperServed++
				return &bad
			}
		}
		for _, dt := range []time.Duration{10 * time.Second, 30 * time.Second, 50 * time.Second} {
			e.W.Clock.Schedule(dt, func() { e.opFetch() })
		}
		e.W.Clock.Schedule(20*time.Second, func() { e.gossipLie() })
	}
	e.W.Clock.Schedule(campaignLength, func() { e.clearCampaign() })
	e.note("campaign", "adversarial pulse on %s: overlapping control outages, replica tampering, gossip lies", col.Name)
}

// clearCampaign ends the pulse: tamper hooks come off every colluding
// replica. Idempotent (quiesce forces it, then the scheduled end fires
// again harmlessly).
func (e *Engine) clearCampaign() {
	if ow := e.W.Over; ow != nil {
		for _, i := range ow.colluding {
			ow.nodes[i].TamperStored = nil
		}
	}
	e.campaignActive = false
}

// gossipLie has a colluding overlay node fabricate an auditor ledger
// full of violations against every honest provider and fold it into
// the reputation gossip stream.
func (e *Engine) gossipLie() {
	ow := e.W.Over
	if ow == nil || len(ow.colluding) == 0 {
		return
	}
	led := auditor.NewLedger()
	for _, n := range e.W.Nets[:len(e.W.Nets)-1] {
		for i := 0; i < 5; i++ {
			led.RecordAudit(n.Name)
		}
		for i := 0; i < 4; i++ {
			led.RecordViolation(auditor.Violation{Provider: n.Name, Kind: auditor.ViolationSecurityBypass})
		}
	}
	liar := ow.nodes[ow.colluding[0]]
	liar.Rep().Merge(overlay.FoldLedger(fmt.Sprintf("liar%d", e.gossipLies), led, 1))
	liar.Refresh(nil)
	e.gossipLies++
	e.note("gossip-lie", "colluding node smears %d honest providers", len(e.W.Nets)-1)
}
