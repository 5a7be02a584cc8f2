package experiments

import (
	"fmt"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/discovery"
	"pvn/internal/health"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

// E15Params parameterizes the roaming/redirection experiment.
type E15Params struct {
	// Flows is the number of concurrent flows in each phase.
	Flows int
	// TickEvery is the per-flow data-packet cadence.
	TickEvery time.Duration
	// OutageStart/OutageEnd bound the primary tunnel endpoint's crash
	// window in the failover sweep.
	OutageStart, OutageEnd time.Duration
	// RunFor is the failover sweep's total duration.
	RunFor time.Duration
	Seed   uint64
}

// DefaultE15 is the standard configuration.
var DefaultE15 = E15Params{
	Flows:       4,
	TickEvery:   2 * time.Millisecond,
	OutageStart: 100 * time.Millisecond,
	OutageEnd:   300 * time.Millisecond,
	RunFor:      400 * time.Millisecond,
	Seed:        15,
}

// e15FailoverStats aggregates one endpoint-outage scenario.
type e15FailoverStats struct {
	sent, delivered, lost int
	failovers             int64
	redirections          int
	downAt                time.Duration
}

// e15RoamStats aggregates one roam scenario.
type e15RoamStats struct {
	sent, delivered, lost int
	proxyFlows            int
	migrated              int
	invoiceMicro          int64
}

// E15 measures resilient redirection (§3.3 "coping with unavailability",
// Fig 1c). Part one: a tunneled device's primary endpoint crashes
// mid-run; with active health probes the table detects the outage and
// re-pins every flow to the trusted standby, so loss is bounded by the
// detection latency instead of the outage length. Part two: the device
// roams between access networks; make-before-break deploys on the new
// network and migrates stateful middlebox state before retiring the old
// deployment, losing nothing, while teardown-then-rebuild blackholes
// every packet sent during the new deployment's boot window and
// cold-starts the split-TCP proxy.
func E15(p E15Params) *Result {
	res := &Result{
		ID:    "E15",
		Title: "resilient roaming: probed failover, make-before-break",
		Claim: "health probes bound endpoint-outage loss to detection latency, and make-before-break roaming loses zero packets and preserves middlebox state where teardown-rebuild drops and cold-starts (paper S3.3)",
		Header: []string{"scenario", "sent", "delivered", "lost", "failovers",
			"proxy flows", "invoice u"},
	}

	// Part one: endpoint outage, static pin vs probed failover.
	outage := p.OutageEnd - p.OutageStart
	static := runE15Failover(p, false)
	probed := runE15Failover(p, true)
	res.AddRow("static pin, endpoint outage",
		fmt.Sprint(static.sent), fmt.Sprint(static.delivered), fmt.Sprint(static.lost),
		fmt.Sprint(static.failovers), "-", "-")
	res.AddRow("probed failover, endpoint outage",
		fmt.Sprint(probed.sent), fmt.Sprint(probed.delivered), fmt.Sprint(probed.lost),
		fmt.Sprint(probed.failovers), "-", "-")

	// Part two: roam between networks, teardown-rebuild vs
	// make-before-break.
	tdr := runE15Roam(p, false)
	mbb := runE15Roam(p, true)
	res.AddRow("roam: teardown-rebuild",
		fmt.Sprint(tdr.sent), fmt.Sprint(tdr.delivered), fmt.Sprint(tdr.lost),
		"-", fmt.Sprint(tdr.proxyFlows), fmt.Sprint(tdr.invoiceMicro))
	res.AddRow("roam: make-before-break",
		fmt.Sprint(mbb.sent), fmt.Sprint(mbb.delivered), fmt.Sprint(mbb.lost),
		"-", fmt.Sprint(mbb.proxyFlows), fmt.Sprint(mbb.invoiceMicro))

	res.Findingf("static pin loses the whole %v outage (%d packets); probes detect the dead endpoint at %v and re-pin all %d flows, bounding loss to %d packets of detection latency",
		outage, static.lost, probed.downAt, p.Flows, probed.lost)
	res.Findingf("every probed failover is ledger evidence: %d redirection records under the dead endpoint", probed.redirections)
	res.Findingf("teardown-rebuild blackholes the new deployment's boot window (%d packets); make-before-break drains through the old chains and loses %d",
		tdr.lost, mbb.lost)
	res.Findingf("the split-TCP proxy migrates: %d flows survive the make-before-break handover (%d middleboxes received state) vs %d after a cold teardown-rebuild start",
		mbb.proxyFlows, mbb.migrated, tdr.proxyFlows)
	res.Findingf("old-network invoices stay exact across handover: teardown bills %du for pre-roam traffic only, make-before-break bills %du including the traffic drained while the new deployment booted",
		tdr.invoiceMicro, mbb.invoiceMicro)
	return res
}

// runE15Failover drives tunneled traffic through a two-endpoint table on
// the simulated clock while the primary endpoint's path crashes for
// [OutageStart, OutageEnd). With probes disabled the flows stay pinned
// to the dead endpoint; with probes the health ladder detects the outage
// and Route re-pins them to the standby. DropRate is zero everywhere, so
// the run is deterministic for any seed.
func runE15Failover(p E15Params, probes bool) e15FailoverStats {
	clock := &netsim.Clock{}
	st := e15FailoverStats{}

	tbl := tunnel.NewTable(packet.MustParseIPv4("10.15.0.5"))
	tbl.Health = tunnel.HealthConfig{
		Window: 8, DownThreshold: 2,
		ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 20 * time.Millisecond,
		RetryBackoff: 40 * time.Millisecond, RetryBackoffMax: 80 * time.Millisecond,
		ProbationProbes: 1,
	}
	tbl.OnEvent = func(ev tunnel.Event) {
		if ev.Endpoint == "cloud" && ev.To == health.Down && st.downAt == 0 {
			st.downAt = ev.At
		}
	}
	ledger := auditor.NewLedger()
	tbl.OnFailover = func(f packet.Flow, from, to string) {
		ledger.RecordRedirection(auditor.Redirection{
			Provider: from, From: "tunnel:" + from, To: "tunnel:" + to,
			Reason: "endpoint down", At: clock.Now(),
		})
	}
	tbl.Add(&tunnel.Endpoint{Name: "cloud", Addr: packet.MustParseIPv4("198.51.100.50"),
		ExtraRTT: 2 * time.Millisecond, Trusted: true})
	tbl.Add(&tunnel.Endpoint{Name: "home", Addr: packet.MustParseIPv4("203.0.113.80"),
		ExtraRTT: 5 * time.Millisecond, Trusted: true})

	rng := netsim.NewRNG(p.Seed)
	paths := map[string]*netsim.FaultInjector{
		"cloud": netsim.NewFaultInjector(netsim.FaultConfig{
			DelayMin: 2 * time.Millisecond, DelayMax: 2 * time.Millisecond,
			Outages: []netsim.Outage{{From: p.OutageStart, Until: p.OutageEnd}},
		}, rng.Fork()),
		"home": netsim.NewFaultInjector(netsim.FaultConfig{
			DelayMin: 5 * time.Millisecond, DelayMax: 5 * time.Millisecond,
		}, rng.Fork()),
	}
	if probes {
		prober := tunnel.NewProber(tbl, clock)
		for name, inj := range paths {
			prober.SetPath(name, inj)
		}
		prober.Start()
	}

	flows := make([]packet.Flow, p.Flows)
	for i := range flows {
		flows[i] = packet.Flow{
			Proto: packet.IPProtoTCP,
			Src:   packet.Endpoint{Addr: packet.MustParseIPv4("10.15.0.5"), Port: uint16(47000 + i)},
			Dst:   packet.Endpoint{Addr: packet.MustParseIPv4("93.184.216.34"), Port: 443},
		}.Canonical()
	}

	for t := time.Duration(0); t < p.RunFor; t += p.TickEvery {
		clock.At(t, func() {
			for _, f := range flows {
				name, _ := tbl.Route("cloud", f)
				st.sent++
				if paths[name].Down(clock.Now()) {
					st.lost++
				} else {
					st.delivered++
				}
			}
		})
	}
	clock.RunUntil(p.RunFor)
	st.failovers = tbl.Failovers()
	st.redirections = len(ledger.Redirections("cloud"))
	return st
}

const e15CfgSrc = `
pvnc e15-roam
owner alice
device 10.15.0.5
middlebox prox tcp-proxy
chain fast prox
policy 100 match proto=tcp dport=80 via=fast action=forward
policy 0 match any action=forward
`

// runE15Roam runs one roam timeline on a hand-advanced clock: deploy on
// network A, carry phase-one flows, roam to network B at t=50ms, then
// carry phase-two flows to t=100ms. Make-before-break steers packets
// through the Handover (old chains serve the boot window and the drain);
// teardown-rebuild processes them on the new session immediately, so the
// boot window blackholes. No randomness anywhere: counts are exact.
func runE15Roam(p E15Params, makeBeforeBreak bool) e15RoamStats {
	var now time.Duration
	st := e15RoamStats{}

	vendorKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed))
	vendor := pki.NewRootCA("Vendor", vendorKey, 0, 1<<40)
	mkNet := func(name string, seed uint64) *core.AccessNetwork {
		n, err := core.NewStandardNetwork(core.NetworkConfig{
			Name: name,
			Provider: &discovery.ProviderPolicy{
				Provider: name, DeployServer: "d",
				Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
				Supported: map[string]int64{"tcp-proxy": 40},
			},
			Now:    func() time.Duration { return now },
			Vendor: vendor, VendorSeed: seed,
			// 1<<20 per MB makes the traffic line exactly 1u per byte,
			// so the invoice exposes the old network's metered volume.
			Tariff: billing.Tariff{PerModuleMicro: map[string]int64{"tcp-proxy": 40}, PerMBMicro: 1 << 20},
		})
		if err != nil {
			panic(fmt.Sprintf("e15: network %s: %v", name, err))
		}
		return n
	}
	netA, netB := mkNet("isp-a", p.Seed+1), mkNet("isp-b", p.Seed+2)

	cfg, err := pvnc.Parse(e15CfgSrc)
	if err != nil {
		panic(fmt.Sprintf("e15: pvnc: %v", err))
	}
	dev := &core.Device{
		ID: "dev15", Addr: packet.MustParseIPv4("10.15.0.5"),
		Config: cfg, BudgetMicro: 10_000, Strategy: discovery.StrategyReduce,
		Tunnels: tunnel.NewTable(packet.MustParseIPv4("10.15.0.5")),
		Vendors: pki.NewTrustStore(vendor.Cert),
	}

	s, err := core.Connect(dev, []*core.AccessNetwork{netA})
	if err != nil {
		panic(fmt.Sprintf("e15: connect: %v", err))
	}

	dst := packet.MustParseIPv4("93.184.216.34")
	mkPkt := func(sport uint16, i int) []byte {
		data, err := trace.HTTPRequestPacket(packet.MustParseIPv4("10.15.0.5"), dst,
			sport, "api.example", "/ok", fmt.Sprintf("tick=%d", i))
		if err != nil {
			panic(err)
		}
		return data
	}
	const roamAt = 50 * time.Millisecond
	const endAt = 100 * time.Millisecond
	tickStart := s.ReadyAt() + time.Millisecond

	send := func(run func(data []byte, inPort uint16) (bool, error), sport uint16, i int) {
		st.sent++
		ok, err := run(mkPkt(sport, i), 0)
		if err == nil && ok {
			st.delivered++
		} else {
			st.lost++
		}
	}
	sessRun := func(s *core.Session) func([]byte, uint16) (bool, error) {
		return func(data []byte, inPort uint16) (bool, error) {
			d, err := s.Process(data, inPort)
			return d.Verdict == openflow.VerdictOutput, err
		}
	}

	// Phase one: flows A on the old network, once it is ready.
	i := 0
	for now = tickStart; now < roamAt; now += p.TickEvery {
		send(sessRun(s), uint16(47000+i%p.Flows), i)
		i++
	}

	// Roam at t=50ms.
	now = roamAt
	var run func([]byte, uint16) (bool, error)
	var h *core.Handover
	if makeBeforeBreak {
		h, err = core.BeginRoam(s, []*core.AccessNetwork{netB}, core.RoamOptions{DrainDeadline: 20 * time.Millisecond})
		if err != nil {
			panic(fmt.Sprintf("e15: begin roam: %v", err))
		}
		st.migrated = h.Migrated
		run = func(data []byte, inPort uint16) (bool, error) {
			d, err := h.Process(data, inPort)
			return d.Verdict == openflow.VerdictOutput, err
		}
	} else {
		s2, inv, err := core.RoamWith(s, []*core.AccessNetwork{netB}, core.RoamOptions{TeardownFirst: true})
		if err != nil {
			panic(fmt.Sprintf("e15: roam: %v", err))
		}
		st.invoiceMicro = inv.TotalMicro
		run = sessRun(s2)
	}

	// Phase two: fresh flows B ride the handover (or the rebuilt
	// session). One phase-one flow keeps talking briefly — under
	// make-before-break it drains through the old chains.
	for now = roamAt + p.TickEvery; now <= endAt; now += p.TickEvery {
		send(run, uint16(48000+i%p.Flows), i)
		if now < roamAt+10*time.Millisecond {
			send(run, 47000, i)
		}
		i++
	}

	if makeBeforeBreak {
		inv, err := h.Complete()
		if err != nil {
			panic(fmt.Sprintf("e15: complete: %v", err))
		}
		st.invoiceMicro = inv.TotalMicro
	}

	dep := netB.Server.Deployment(dev.ID)
	if dep != nil {
		for _, id := range dep.InstanceIDs {
			if prox, ok := netB.Server.Runtime.Instance(id).Box.(*mbx.TCPProxy); ok {
				st.proxyFlows = len(prox.Flows)
			}
		}
	}
	return st
}
