package scenario

import (
	"fmt"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/discovery"
	"pvn/internal/netsim"
	"pvn/internal/orchestrator"
	"pvn/internal/overlay"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/store"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

// World is the assembled system under test: access networks with lossy
// control channels, a device population attached through package core,
// and (optionally) a discovery overlay riding the same simulated clock.
type World struct {
	Clock *netsim.Clock
	Nets  []*core.AccessNetwork
	Devs  []*device
	// Ledger is shared by every device: redirection and violation
	// evidence from all of them lands here, which is what the
	// ledger-complete invariant audits.
	Ledger *auditor.Ledger
	Over   *overlayWorld // nil when Config.OverlayNodes == 0
	// Cluster is an optional fleet control plane riding the same clock
	// (Engine.AttachCluster); when set, the placement-book invariant
	// joins every quiet-point check.
	Cluster *orchestrator.Cluster

	netIdx  map[*core.AccessNetwork]int
	devByID map[string]*device
}

// device is one simulated device plus the harness's exact accounting
// for it. Exactly one of sess/hand is active: hand is non-nil while a
// make-before-break handover is draining.
type device struct {
	idx      int
	id       string
	addr     packet.IPv4Address
	dev      *core.Device
	campaign bool
	flap     bool
	tmpl     []byte // heartbeat packet (constant flow)

	sess *core.Session
	hand *core.Handover
	// busy marks a device owned by an in-flight episode (handover,
	// flap, detach gap) so the composer does not stack ops on it.
	busy bool
	// repairPending marks a scheduled reconnect after the device
	// noticed its deployment vanished (sweep or provider crash).
	repairPending bool
	probing       bool
	// muteUntil: the device has "gone dark" and skips lease renewals
	// until this instant — long enough for the lease to lapse.
	muteUntil time.Duration

	// Invoice-drift ledger (bytes; the tariff makes 1 byte == 1 micro):
	// billable counts every byte a matched in-network flow rule
	// metered; invoiced counts traffic micro from invoices received;
	// forfeited counts usage lost to lease sweeps and provider crashes.
	billable, invoiced, forfeited int64

	sent, served, lost, corrupts int64
	lastServed, lastBeat         time.Duration
	maxGap                       time.Duration
	blackoutReported             bool

	// Flap extras: per-endpoint path injectors and the prober.
	paths  map[string]*netsim.FaultInjector
	prober *tunnel.Prober
}

// attachments lists the live sessions whose usage the device still owes
// for (one, or two mid-handover on distinct deployments).
func (d *device) attachments() []*core.Session {
	if d.hand != nil {
		out := []*core.Session{d.hand.Old}
		if !d.hand.SameDeployment() {
			out = append(out, d.hand.New)
		}
		return out
	}
	if d.sess != nil {
		return []*core.Session{d.sess}
	}
	return nil
}

// overlayWorld is the optional discovery overlay: a dual-star topology
// whose network clock IS the world clock, a published module manifest,
// and a designated device-side node that fetches it.
type overlayWorld struct {
	nodes   []*overlay.Node
	hubs    [2]*netsim.Node
	devNode *overlay.Node
	// colluding are node indexes acting for the adversarial provider
	// (their stored replicas get tampered during campaigns).
	colluding []int
	pub       pki.KeyPair
	// evil signs tampered replicas during campaigns.
	evil   pki.KeyPair
	module *store.Module
	modKey overlay.ID
}

// pvncFor renders the device's PVN configuration. Campaign devices
// carry the colluding provider's fault middlebox in their chain — its
// panics and corruption then ride every deployment of that config.
func pvncFor(d *device, faultySeed uint64) string {
	if d.campaign {
		return fmt.Sprintf(`
pvnc soak-adv-%s
owner owner-%s
device %s
middlebox fb faulty seed=%d corrupt-every=7 panic-every=50 fail=open
chain adv fb
policy 10 match proto=tcp dport=80 via=adv action=forward
policy 0 match any action=forward
`, d.id, d.id, d.addr, faultySeed)
	}
	return fmt.Sprintf(`
pvnc soak-%s
owner owner-%s
device %s
middlebox prox tcp-proxy
chain fast prox
policy 10 match proto=tcp dport=80 via=fast action=forward
policy 0 match any action=forward
`, d.id, d.id, d.addr)
}

// supportedModules is what every provider quotes; prices are fixed so
// module charges subtract exactly out of invoices.
var supportedModules = map[string]int64{"tcp-proxy": 40, "faulty": 25}

// buildWorld assembles the system. rng draws are forked per subsystem
// so op scheduling, control-channel faults and overlay identities stay
// independent and reproducible.
func buildWorld(cfg Config, rng *netsim.RNG) *World {
	w := &World{
		netIdx:  make(map[*core.AccessNetwork]int),
		devByID: make(map[string]*device),
		Ledger:  auditor.NewLedger(),
	}

	// Overlay first: its topology owns the clock everything else rides.
	if cfg.OverlayNodes > 0 {
		link := netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 100e6}
		bridge := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 1e9}
		nA := cfg.OverlayNodes / 2
		net, hubs, leaves := netsim.NewDualStarTopology(cfg.Seed, nA, cfg.OverlayNodes-nA, link, bridge)
		w.Clock = net.Clock
		ow := &overlayWorld{hubs: hubs}
		for _, side := range leaves {
			for _, leaf := range side {
				kp, err := pki.GenerateKey(pki.NewDeterministicRand(cfg.Seed<<20 + uint64(len(ow.nodes)) + 1))
				if err != nil {
					panic("scenario: keygen: " + err.Error())
				}
				ow.nodes = append(ow.nodes, overlay.NewNode(leaf, kp, overlay.Config{}))
			}
		}
		for i := 1; i < len(ow.nodes); i++ {
			i := i
			w.Clock.Schedule(time.Duration(i)*20*time.Millisecond, func() {
				ow.nodes[i].Join(ow.nodes[0].Self(), nil)
			})
		}
		w.Clock.Run() // joins settle before simulated time zero matters

		// A registered publisher ships one module; the colluding
		// provider's replicas are the B-side tail.
		ow.pub, _ = pki.GenerateKey(pki.NewDeterministicRand(cfg.Seed<<20 + 900004))
		ow.evil, _ = pki.GenerateKey(pki.NewDeterministicRand(cfg.Seed<<20 + 900005))
		ow.module = &store.Module{
			Name: "acme/tracker-radar", Version: "2.0", Publisher: "acme",
			Type: "tracker-block", Config: map[string]string{"list": "ads.example"},
		}
		ow.module.Sign(ow.pub.Private)
		ow.modKey = overlay.ModuleKey(ow.module)
		ow.nodes[1].Put(overlay.NewModuleRecord(ow.module, ow.pub, 1), nil)
		w.Clock.Run()
		ow.devNode = ow.nodes[len(ow.nodes)-1]
		for i := len(ow.nodes) * 3 / 4; i < len(ow.nodes)-1; i++ {
			ow.colluding = append(ow.colluding, i)
		}
		w.Over = ow
	} else {
		w.Clock = &netsim.Clock{}
	}
	now := func() time.Duration { return w.Clock.Now() }

	// Access networks. Every control channel gets its own forked fault
	// injector: storms script outage windows onto them mid-run.
	faultRNG := rng.Fork()
	for i := 0; i < cfg.Networks; i++ {
		name := fmt.Sprintf("isp-%c", 'a'+i)
		n, err := core.NewStandardNetwork(core.NetworkConfig{
			Name: name,
			Provider: &discovery.ProviderPolicy{
				Provider: name, DeployServer: "d" + name,
				Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
				Supported: supportedModules,
			},
			Now: now,
			// 1<<20 per MB prices traffic at exactly 1 micro per byte:
			// invoices expose metered bytes, which is what makes the
			// invoice-drift invariant an equality instead of a bound.
			Tariff: billing.Tariff{PerModuleMicro: supportedModules, PerMBMicro: 1 << 20},
		})
		if err != nil {
			panic(fmt.Sprintf("scenario: network %s: %v", name, err))
		}
		n.Faults = netsim.NewFaultInjector(netsim.FaultConfig{DropRate: 0.02}, faultRNG.Fork())
		n.Server.LeaseTTL = cfg.LeaseTTL
		w.netIdx[n] = i
		w.Nets = append(w.Nets, n)
	}

	// Devices. The first CampaignDevices carry the faulty chain, the
	// next FlapDevices are multihomed with probed tunnel endpoints.
	dst := packet.MustParseIPv4("93.184.216.34")
	for i := 0; i < cfg.Devices; i++ {
		d := &device{
			idx:      i,
			id:       fmt.Sprintf("dev%02d", i),
			addr:     packet.MustParseIPv4(fmt.Sprintf("10.19.%d.%d", 1+i/200, 1+i%200)),
			campaign: i < cfg.CampaignDevices,
			flap:     i >= cfg.CampaignDevices && i < cfg.CampaignDevices+cfg.FlapDevices,
		}
		pcfg, err := pvnc.Parse(pvncFor(d, cfg.Seed+uint64(i)))
		if err != nil {
			panic(fmt.Sprintf("scenario: pvnc %s: %v", d.id, err))
		}
		d.dev = &core.Device{
			ID: d.id, Addr: d.addr, Config: pcfg,
			BudgetMicro: 10_000, Strategy: discovery.StrategyReduce,
			Ledger: w.Ledger,
		}
		if d.flap {
			tbl := tunnel.NewTable(d.addr)
			tbl.Health = tunnel.HealthConfig{
				Window: 8, DownThreshold: 2,
				ProbeInterval: 2 * time.Second, ProbeTimeout: 4 * time.Second,
				RetryBackoff: 8 * time.Second, RetryBackoffMax: 16 * time.Second,
				ProbationProbes: 1,
			}
			cloud, home := "cloud-"+d.id, "home-"+d.id
			tbl.Add(&tunnel.Endpoint{Name: cloud, Addr: packet.MustParseIPv4("198.51.100.50"),
				ExtraRTT: 2 * time.Millisecond, Trusted: true})
			tbl.Add(&tunnel.Endpoint{Name: home, Addr: packet.MustParseIPv4("203.0.113.80"),
				ExtraRTT: 5 * time.Millisecond, Trusted: true})
			tbl.OnFailover = func(f packet.Flow, from, to string) {
				w.Ledger.RecordRedirection(auditor.Redirection{
					Provider: from, From: "tunnel:" + from, To: "tunnel:" + to,
					Reason: "endpoint down", At: w.Clock.Now(),
				})
			}
			d.paths = map[string]*netsim.FaultInjector{
				cloud: netsim.NewFaultInjector(netsim.FaultConfig{
					DelayMin: 2 * time.Millisecond, DelayMax: 2 * time.Millisecond}, faultRNG.Fork()),
				home: netsim.NewFaultInjector(netsim.FaultConfig{
					DelayMin: 5 * time.Millisecond, DelayMax: 5 * time.Millisecond}, faultRNG.Fork()),
			}
			d.prober = tunnel.NewProber(tbl, w.Clock)
			d.prober.SetPath(cloud, d.paths[cloud])
			d.prober.SetPath(home, d.paths[home])
			d.dev.Tunnels = tbl
		}
		d.tmpl, err = trace.HTTPRequestPacket(d.addr, dst, uint16(40000+i%20000),
			"soak.example", "/beat", "tick")
		if err != nil {
			panic(fmt.Sprintf("scenario: packet %s: %v", d.id, err))
		}
		w.Devs = append(w.Devs, d)
		w.devByID[d.id] = d
	}

	// Initial attachments, before any storm runs. The control channel
	// already drops 2% of hops, so retry until the deployment lands
	// in-network (each retry consumes injector draws deterministically).
	for _, d := range w.Devs {
		home := d.idx % cfg.Networks
		if cfg.InitialNetwork >= 0 {
			home = cfg.InitialNetwork
		}
		for try := 0; ; try++ {
			s, err := core.Connect(d.dev, []*core.AccessNetwork{w.Nets[home]})
			if err == nil && s.Mode == core.ModeInNetwork {
				d.sess = s
				break
			}
			if try >= 50 {
				panic(fmt.Sprintf("scenario: initial connect %s never landed in-network", d.id))
			}
		}
	}

	return w
}
