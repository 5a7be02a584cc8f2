package main

import (
	"fmt"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/overlay"
	"pvn/internal/pvnc"
)

// discoveryWorld is the overlay_discover world: the overlay with the
// providers' offers published, and a seeded rotation of device nodes
// that ask for them.
type discoveryWorld struct {
	cfg   runConfig
	ow    *overlayWorld
	order []int
	next  int
	neg   *discovery.Negotiator
	ih    *inputHash

	// Totals over the discoveries since they were last reset, for the
	// per-layer rows; events is only counted when countEvents is set,
	// because counting replaces Clock.Run by a Step loop.
	countEvents    bool
	rounds, events int64
}

func buildDiscoveryWorld(cfg runConfig) (*discoveryWorld, error) {
	r := newRNG(cfg.seed)
	w := &discoveryWorld{cfg: cfg, ih: newInputHash()}
	nodes := cfg.scaled(cfg.spec.Residents, 16)
	var err error
	if w.ow, err = newOverlayWorld(nodes); err != nil {
		return nil, err
	}
	w.order = r.perm(nodes)
	for _, i := range w.order {
		w.ih.addString(fmt.Sprint(i))
	}
	sub := makeSubscriber(0, r)
	w.ih.addString(sub.text)
	pc, err := pvnc.Parse(sub.text)
	if err != nil {
		return nil, fmt.Errorf("discovery PVNC: %w", err)
	}
	w.neg = discovery.NewNegotiator(sub.id, pc, 1000, discovery.StrategyStrict)
	return w, nil
}

func (w *discoveryWorld) close() {}

// discover runs one offer discovery from the next device node to
// completion on the simulated clock and returns its wall time in µs.
// The oracle: exactly overlayProviders verified offers, each covering
// everything the DM requires, and no record rejected.
func (w *discoveryWorld) discover(rep *report, op int64, rec *recorder) float64 {
	rep.ops(1)
	node := w.ow.nodes[w.order[w.next%len(w.order)]]
	w.next++
	src := &overlay.OfferSource{Node: node, Service: overlayService}
	dm := w.neg.MakeDM()
	complete := 0
	root := rec.begin("discovery", -1, op)
	t0 := time.Now()
	sp := rec.begin("overlay.query", root, op)
	src.Query(dm, func(o *discovery.Offer) {
		if o.SupportsAll(dm.RequiredTypes) {
			complete++
		}
	})
	rec.end(sp)
	sp = rec.begin("netsim.clock_run", root, op)
	if w.countEvents {
		for w.ow.clock.Step() {
			w.events++
		}
	} else {
		w.ow.clock.Run()
	}
	rec.end(sp)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	rec.end(root)
	w.rounds += int64(src.LookupRounds)
	if complete != overlayProviders || src.AdsRejected != 0 {
		rep.fail(1, "discovery %d: %d complete offers (oracle %d), %d records rejected", op, complete, overlayProviders, src.AdsRejected)
	}
	return us
}

func (w *discoveryWorld) loop(rep *report) *opLoop {
	return &opLoop{
		roundOps: w.cfg.scaled(w.cfg.spec.RoundOps, 4),
		prepare:  func(int) {},
		do: func(_ int, op int64, rec *recorder) float64 {
			return w.discover(rep, op, rec)
		},
	}
}

// runDiscovery is an untraced overlay_discover run.
func runDiscovery(cfg runConfig) (*report, error) {
	rep := newReport(cfg.spec.Name, cfg.seed, false)
	w, setup, err := setupRepeated(cfg, buildDiscoveryWorld, (*discoveryWorld).close)
	if err != nil {
		return nil, err
	}
	rep.setN("setup_s", setup, setupRepeats)
	l := w.loop(rep)
	l.warm()
	w.rounds = 0
	l.afterRound = func(n int) {
		if n == 0 {
			rep.Exact["lookup_rounds"] = w.rounds
		}
		if n+1 == heapAfterRounds {
			rep.set("heap_live_mb", heapLiveMB())
		}
	}
	res := l.run(cfg.budget(1), nil, 0)
	res.endToEnd(rep)
	rep.InputHash = w.ih.sum()
	return rep, nil
}

// tracedDiscovery is overlay_discover's own traced pass: lookup
// rounds, simulated messages, bytes and events, and mallocs per
// discovery over one round; then rounds with spans off and on.
func tracedDiscovery(cfg runConfig, rep *report) (*discoveryWorld, error) {
	w, err := buildDiscoveryWorld(cfg)
	if err != nil {
		return nil, err
	}
	l := w.loop(rep)
	l.warm()
	w.rounds, w.countEvents = 0, true
	msgs0, bytes0 := w.ow.traffic()
	m0 := mallocsNow()
	for i := 0; i < l.roundOps; i++ {
		l.do(i, int64(i), nil)
	}
	mallocs := mallocsNow() - m0
	msgs1, bytes1 := w.ow.traffic()
	n := float64(l.roundOps)
	rep.set("overlay.rounds_per_discover", float64(w.rounds)/n)
	rep.set("overlay.msgs_per_discover", float64(msgs1-msgs0)/n)
	rep.set("overlay.bytes_per_discover", float64(bytes1-bytes0)/n)
	rep.set("overlay.allocs_per_discover", float64(mallocs)/n)
	rep.set("netsim.events_per_discover", float64(w.events)/n)
	rep.Exact["lookup_rounds"] = w.rounds
	rep.Exact["netsim_events"] = w.events
	rep.Exact["netsim_msgs"] = msgs1 - msgs0
	w.countEvents = false

	plain := l.run(cfg.budget(0.15), nil, int64(l.roundOps))
	traced := l.run(cfg.budget(0.15), cfg.rec, int64(l.roundOps)+plain.ops)
	plain.traceRows(rep, traced)
	rep.InputHash = w.ih.sum()
	return w, nil
}
