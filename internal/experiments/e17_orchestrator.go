package experiments

import (
	"fmt"
	"strings"
	"time"

	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/netsim"
	"pvn/internal/orchestrator"
	"pvn/internal/packet"
	"pvn/internal/pvnc"
)

// E17Params parameterizes the multi-host orchestration experiment.
type E17Params struct {
	// Hosts/Domains shape the placement-at-scale fleet.
	Hosts   int
	Domains int
	// PlacementRequests is the subscriber population the placers
	// compete over (the 10^5 scale row).
	PlacementRequests int
	// FleetHosts/FleetDevices shape the real-deployment evacuation row
	// (full deployserver+dataplane worlds per host).
	FleetHosts   int
	FleetDevices int
	// ShareSizes are the subscriber counts of the template-sharing
	// memory curve.
	ShareSizes []int
	Seed       uint64
}

// DefaultE17 is the standard configuration.
var DefaultE17 = E17Params{
	Hosts:             24,
	Domains:           4,
	PlacementRequests: 100_000,
	FleetHosts:        4,
	FleetDevices:      24,
	ShareSizes:        []int{100, 1000, 10000},
	Seed:              17,
}

// e17Modules prices the shared edge module; PerMBMicro 1<<20 makes
// 1 byte == 1 micro, so billing checks are integer equalities.
var e17Modules = map[string]int64{"tcp-proxy": 40}

// e17Device builds subscriber i of the constant-shape "edge-std"
// module — every subscriber shares one compiled template.
func e17Device(i int) *core.Device {
	addr := fmt.Sprintf("10.17.%d.%d", i/200, 1+i%200)
	src := fmt.Sprintf(`pvnc edge-std
owner user-%04d
device %s
middlebox prox tcp-proxy
chain fast prox
policy 50 match proto=tcp dport=443 action=forward
policy 40 match proto=udp dport=53 action=drop
policy 30 match dport=993 action=tunnel:cloud
policy 10 match proto=tcp dport=80 via=fast action=forward
policy 0 match any action=forward
`, i, addr)
	cfg, err := pvnc.Parse(src)
	if err != nil {
		panic("e17: bad device pvnc: " + err.Error())
	}
	return &core.Device{ID: fmt.Sprintf("edev-%04d", i), Addr: packet.MustParseIPv4(addr),
		Config: cfg, BudgetMicro: 100_000}
}

// e17Pump pushes one HTTP-ish packet through a session, returning the
// metered bytes (0 when no deployment served it).
func e17Pump(dev *core.Device, sess *core.Session) int64 {
	ip := &packet.IPv4{Src: dev.Addr, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload([]byte("GET / HTTP/1.1\r\nHost: e17\r\n\r\n")))
	if err != nil {
		panic("e17: serialize: " + err.Error())
	}
	disp, err := sess.Process(data, 0)
	if err != nil || disp.Entry == nil {
		return 0
	}
	return int64(len(data))
}

// e17TrafficMicro extracts an invoice's traffic charge, excluding the
// flat per-module lines.
func e17TrafficMicro(inv *billing.Invoice) int64 {
	var total int64
	for _, l := range inv.Lines {
		if strings.HasPrefix(l.Description, "traffic ") {
			total += l.AmountMicro
		}
	}
	return total
}

// e17Specs derives a fleet sized so the request population nearly fills
// it: heterogeneous costs and rack-distance delays (from the fleet
// topology model) give the heuristic something to optimize.
func e17Specs(p E17Params) []orchestrator.HostSpec {
	topo := netsim.NewFleetTopology(p.Seed, p.Hosts, p.Domains,
		netsim.LinkConfig{Latency: 200 * time.Microsecond, BandwidthBps: 10e9},
		netsim.LinkConfig{Latency: 100 * time.Microsecond, BandwidthBps: 10e9})
	specs := make([]orchestrator.HostSpec, p.Hosts)
	perHost := int64(p.PlacementRequests) / int64(p.Hosts)
	for i := range specs {
		d := topo.HostDomain[i]
		specs[i] = orchestrator.HostSpec{
			Name:            fmt.Sprintf("h%03d", i),
			FailureDomain:   fmt.Sprintf("rack%d", d),
			CPUMilli:        perHost * 150,
			MemBytes:        (perHost * 12) << 20,
			DelayUs:         topo.HostDelay(i).Microseconds(),
			CostPerCPUMilli: int64(1 + i%3),
			CostPerMemMB:    int64(1 + i%2),
		}
	}
	return specs
}

// e17Reqs derives the subscriber request stream: varied demands, a
// third carrying delay budgets, a third in anti-affinity groups.
func e17Reqs(rng *netsim.RNG, n int) []orchestrator.ChainRequest {
	reqs := make([]orchestrator.ChainRequest, n)
	for i := range reqs {
		r := orchestrator.ChainRequest{
			ID:       fmt.Sprintf("c%06d", i),
			Tenant:   fmt.Sprintf("t%d", rng.Intn(16)),
			CPUMilli: 50 + int64(rng.Intn(8))*25,
			MemBytes: (4 + int64(rng.Intn(4))*4) << 20,
			Priority: int(rng.Intn(10)),
		}
		if rng.Intn(3) == 0 {
			r.DelayBudgetUs = 400 + int64(rng.Intn(8))*100
		}
		if rng.Intn(3) == 0 {
			r.AntiAffinityKey = fmt.Sprintf("g%d", rng.Intn(n/10+1))
		}
		reqs[i] = r
	}
	return reqs
}

// E17 measures multi-host edge orchestration (the paper's ISP-scale
// deployment question, §3.2/§4): cost-aware placement at 10^5
// subscribers, host-crash evacuation through make-before-break roaming
// with exact billing, template sharing's per-subscriber rule-table
// memory, and admission/brownout policy.
//
// Rows:
//  1. placement: heuristic vs random vs first-fit over the same
//     subscriber stream and budgets — placed count and cost per chain.
//  2. evacuation: a real fleet (deployserver+dataplane worlds) loses a
//     host; 100% of its chains evacuate within the detection bound and
//     the byte ledger stays exact.
//  3. template-share: content-addressed PVNC templates compiled once
//     and shared copy-on-write — rule-table bytes per subscriber with
//     and without sharing.
//  4. admission/brownout: over-quota tenants rejected without touching
//     placed chains; overload sheds lowest-priority best-effort chains
//     and never fail-opens a security chain.
func E17(p E17Params) *Result {
	res := &Result{
		ID:     "E17",
		Title:  "multi-host edge orchestration",
		Claim:  "an ISP can host per-user middlebox chains across an edge fleet: cost-heuristic placement scales to 10^5 subscribers, host crashes evacuate within a bounded blackout with exact billing, and template sharing bounds per-subscriber switch memory (paper S3.2/S4)",
		Header: []string{"phase", "config", "result", "detail", "outcome"},
	}

	// --- 1. placement at scale: heuristic vs baselines ----------------
	specs := e17Specs(p)
	reqs := e17Reqs(netsim.NewRNG(p.Seed), p.PlacementRequests)
	placers := []orchestrator.Placer{
		orchestrator.HeuristicPlacer{},
		orchestrator.RandomPlacer{RNG: netsim.NewRNG(p.Seed + 1)},
		orchestrator.FirstFitPlacer{},
	}
	perChain := map[string]float64{}
	for _, pl := range placers {
		sim := orchestrator.SimulatePlacement(specs, reqs, pl)
		cost := float64(sim.TotalCostMicro) / float64(sim.Placed)
		perChain[pl.Name()] = cost
		res.AddRow("placement/"+pl.Name(),
			fmt.Sprintf("%d hosts, %d domains, %d reqs", p.Hosts, p.Domains, p.PlacementRequests),
			fmt.Sprintf("%d placed, %d rejected", sim.Placed, sim.Rejected),
			fmt.Sprintf("%d spills", sim.Spills),
			fmt.Sprintf("%s micro/chain", f1(cost)))
		res.SetMetric("placement_cost_"+pl.Name(), cost)
		res.SetMetric("placement_placed_"+pl.Name(), float64(sim.Placed))
	}
	if perChain["heuristic"] < perChain["random"] && perChain["heuristic"] < perChain["first-fit"] {
		res.Findingf("heuristic placement is cheapest: %s vs %s (random) and %s (first-fit) micro/chain under identical budgets",
			f1(perChain["heuristic"]), f1(perChain["random"]), f1(perChain["first-fit"]))
	} else {
		res.Findingf("VIOLATED: heuristic not cheapest (%v)", perChain)
	}

	// --- 2. host-crash evacuation with exact billing ------------------
	{
		clock := &netsim.Clock{}
		invoiced := map[string]int64{}
		c := orchestrator.New(orchestrator.Config{
			Clock: clock, HeartbeatEvery: 5 * time.Second,
			OnInvoice: func(id string, inv *billing.Invoice) { invoiced[id] += e17TrafficMicro(inv) },
		})
		tmpl := pvnc.NewTemplateCache()
		for i := 0; i < p.FleetHosts; i++ {
			h, err := orchestrator.NewHost(orchestrator.HostParams{
				Spec: orchestrator.HostSpec{
					Name: fmt.Sprintf("edge%02d", i), FailureDomain: fmt.Sprintf("rack%d", i%p.Domains),
					CPUMilli: 4000, MemBytes: 512 << 20, CostPerCPUMilli: int64(1 + i%3), CostPerMemMB: 1,
				},
				Clock: clock, Supported: e17Modules, Templates: tmpl,
			})
			if err != nil {
				panic("e17: host: " + err.Error())
			}
			c.AddHost(h)
		}
		c.Start()
		billable := map[string]int64{}
		devs := map[string]*core.Device{}
		for i := 0; i < p.FleetDevices; i++ {
			dev := e17Device(i)
			req := orchestrator.ChainRequest{
				ID: fmt.Sprintf("chain-%04d", i), Tenant: fmt.Sprintf("t%d", i%4),
				CPUMilli: 150, MemBytes: 16 << 20, Priority: 1 + i%8, Security: i%6 == 0,
			}
			if _, err := c.Submit(req, dev); err != nil {
				panic("e17: submit: " + err.Error())
			}
			devs[req.ID] = dev
		}
		clock.RunFor(time.Second)
		for id, dev := range devs {
			billable[id] += e17Pump(dev, c.Placement(id).Sess)
		}

		victim := c.Placement("chain-0000").Host
		var resident []string
		for id, h := range c.Book() {
			if h == victim {
				resident = append(resident, id)
			}
		}
		killedAt := clock.Now()
		forfeited := map[string]int64{}
		for _, f := range c.KillHost(victim) {
			for id, d := range devs {
				if d.ID == f.DeviceID {
					forfeited[id] += f.Bytes
				}
			}
		}
		// Step beat by beat until the book clears the dead host: that
		// instant is the measured blackout.
		blackout := time.Duration(0)
		for step := 0; step < 64; step++ {
			clock.RunFor(time.Second)
			still := false
			for _, h := range c.Book() {
				if h == victim {
					still = true
				}
			}
			if !still {
				blackout = clock.Now() - killedAt
				break
			}
		}
		evacuated := 0
		for _, id := range resident {
			pl := c.Placement(id)
			if pl.State == orchestrator.StatePlaced && pl.Sess != nil {
				evacuated++
			}
		}
		bookClean := len(c.BookViolations()) == 0
		for id, dev := range devs {
			if pl := c.Placement(id); pl.State == orchestrator.StatePlaced {
				billable[id] += e17Pump(dev, pl.Sess)
			}
		}
		c.TeardownAll()
		c.Stop()
		drift := int64(0)
		for id := range devs {
			if d := billable[id] - invoiced[id] - forfeited[id]; d != 0 {
				if d < 0 {
					d = -d
				}
				drift += d
			}
		}
		bound := c.DeadBy()
		outcome := "ok"
		if evacuated != len(resident) || blackout == 0 || blackout > bound || drift != 0 || !bookClean {
			outcome = "VIOLATED"
		}
		res.AddRow("evacuation",
			fmt.Sprintf("%d hosts, %d chains, kill %s", p.FleetHosts, p.FleetDevices, victim),
			fmt.Sprintf("%d/%d evacuated", evacuated, len(resident)),
			fmt.Sprintf("blackout %v <= %v, drift %d micro", blackout, bound, drift),
			outcome)
		res.SetMetric("evac_chains", float64(len(resident)))
		res.SetMetric("evac_evacuated", float64(evacuated))
		res.SetMetric("evac_blackout_s", blackout.Seconds())
		res.SetMetric("evac_bound_s", bound.Seconds())
		res.SetMetric("evac_drift_micro", float64(drift))
		if outcome == "ok" {
			res.Findingf("killing %s evacuated %d/%d chains in %v (bound %v) with zero billing drift and a clean placement book",
				victim, evacuated, len(resident), blackout, bound)
		} else {
			res.Findingf("VIOLATED: evacuation %d/%d, blackout %v (bound %v), drift %d, book clean %v",
				evacuated, len(resident), blackout, bound, drift, bookClean)
		}
	}

	// --- 3. template sharing: per-subscriber rule-table memory --------
	var firstShared, lastShared float64
	for _, n := range p.ShareSizes {
		cache := pvnc.NewTemplateCache()
		opts := pvnc.CompileOptions{Cookie: 1, DevicePort: 0, UpstreamPort: 1}
		for i := 0; i < n; i++ {
			dev := e17Device(i)
			opts.Cookie = uint64(i + 1)
			if _, err := cache.CompileShared(dev.Config, opts); err != nil {
				panic("e17: compile: " + err.Error())
			}
		}
		st := cache.Stats()
		naivePer := float64(st.NaiveTableBytes()) / float64(n)
		sharedPer := float64(st.SharedTableBytes()) / float64(n)
		if firstShared == 0 {
			firstShared = sharedPer
		}
		lastShared = sharedPer
		res.AddRow("template-share",
			fmt.Sprintf("%d subscribers, 1 template", n),
			fmt.Sprintf("%d B/sub shared", int64(sharedPer)),
			fmt.Sprintf("%d B/sub naive", int64(naivePer)),
			fmt.Sprintf("%s saved", pct(1-sharedPer/naivePer)))
		res.SetMetric(fmt.Sprintf("share_bytes_per_sub_%d", n), sharedPer)
		res.SetMetric(fmt.Sprintf("naive_bytes_per_sub_%d", n), naivePer)
	}
	if len(p.ShareSizes) > 1 && lastShared <= firstShared {
		res.Findingf("template sharing amortizes: per-subscriber table bytes fall from %d (n=%d) to %d (n=%d) as one compiled skeleton serves every co-subscriber",
			int64(firstShared), p.ShareSizes[0], int64(lastShared), p.ShareSizes[len(p.ShareSizes)-1])
	}

	// --- 4. admission control and brownout policy ---------------------
	{
		clock := &netsim.Clock{}
		c := orchestrator.New(orchestrator.Config{
			Clock: clock, HeartbeatEvery: 5 * time.Second,
			Quotas: map[string]orchestrator.Quota{"capped": {MaxChains: 3}},
		})
		for i := 0; i < 2; i++ {
			h, err := orchestrator.NewHost(orchestrator.HostParams{
				Spec: orchestrator.HostSpec{Name: fmt.Sprintf("b%d", i), FailureDomain: fmt.Sprintf("rack%d", i),
					CPUMilli: 4000, MemBytes: 1 << 30, CostPerCPUMilli: 1},
				Clock: clock, Supported: e17Modules,
			})
			if err != nil {
				panic("e17: host: " + err.Error())
			}
			c.AddHost(h)
		}
		c.Start()
		// Over-quota tenant: 6 submissions against a 3-chain quota.
		for i := 0; i < 6; i++ {
			dev := e17Device(100 + i)
			_, _ = c.Submit(orchestrator.ChainRequest{
				ID: fmt.Sprintf("q-%d", i), Tenant: "capped",
				CPUMilli: 100, MemBytes: 8 << 20, Priority: 5,
			}, dev)
		}
		quotaRejects := c.Stats().RejectedQuota
		// Fill remaining capacity with best-effort chains plus security
		// chains, then kill a host: the survivors can only take the
		// evacuees by shedding the lowest-priority best-effort load.
		for i := 0; i < 6; i++ {
			dev := e17Device(200 + i)
			if _, err := c.Submit(orchestrator.ChainRequest{
				ID: fmt.Sprintf("load-%d", i), Tenant: fmt.Sprintf("bt%d", i),
				CPUMilli: 1000, MemBytes: 8 << 20, Priority: 1 + i, Security: i >= 4,
			}, dev); err != nil {
				panic("e17: load submit: " + err.Error())
			}
		}
		var secHost string
		for i := 4; i < 6; i++ {
			if pl := c.Placement(fmt.Sprintf("load-%d", i)); pl != nil {
				secHost = pl.Host
			}
		}
		killedAt := clock.Now()
		c.KillHost(secHost)
		clock.RunUntil(killedAt + c.DeadBy())
		c.Stop()
		st := c.Stats()
		secShed, secServing := 0, 0
		for i := 4; i < 6; i++ {
			pl := c.Placement(fmt.Sprintf("load-%d", i))
			if pl.Req.Security && pl.State == orchestrator.StateShed {
				secShed++
			}
			if pl.State == orchestrator.StatePlaced && pl.Sess != nil {
				secServing++
			}
		}
		outcome := "ok"
		if quotaRejects != 3 || secShed != 0 {
			outcome = "VIOLATED"
		}
		res.AddRow("admission/brownout",
			"quota 3 chains; overload + host kill",
			fmt.Sprintf("%d over-quota rejected", quotaRejects),
			fmt.Sprintf("%d shed, %d security shed, %d security serving", st.Shed, secShed, secServing),
			outcome)
		res.SetMetric("quota_rejects", float64(quotaRejects))
		res.SetMetric("brownout_sheds", float64(st.Shed))
		res.SetMetric("security_sheds", float64(secShed))
		if outcome == "ok" {
			res.Findingf("admission rejected %d over-quota chains without touching placed load; brownout shed %d best-effort chains and zero security chains (fail-closed held)",
				quotaRejects, st.Shed)
		} else {
			res.Findingf("VIOLATED: quota rejects %d (want 3), security sheds %d (want 0)", quotaRejects, secShed)
		}
	}

	return res
}
