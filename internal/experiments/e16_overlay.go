package experiments

import (
	"fmt"
	"math/bits"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/discovery"
	"pvn/internal/netsim"
	"pvn/internal/overlay"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/store"
)

// E16Params parameterizes the decentralized-discovery experiment.
type E16Params struct {
	// Nodes is the overlay population, split across two star clusters.
	Nodes int
	// Lookups is the convergence sample size.
	Lookups int
	// ChurnFrac is the fraction of nodes that crash in the churn phase.
	ChurnFrac float64
	Seed      uint64
}

// DefaultE16 is the standard configuration: a 256-node overlay, the
// scale the acceptance criteria bound the hop count at.
var DefaultE16 = E16Params{Nodes: 256, Lookups: 64, ChurnFrac: 0.25, Seed: 16}

const e16Cfg = `
pvnc overlay-roam
owner alice
device 10.0.0.1
middlebox tlsv tls-verify
middlebox pii pii-detect mode=block
middlebox vid transcoder
chain secure tlsv pii
policy 100 match proto=tcp dport=443 via=secure action=forward
policy 0 match any action=forward
`

// e16Service is the rendezvous name providers advertise under.
const e16Service = "pvn"

// E16 measures decentralized discovery (§3.1 without the coordination
// server): cold-start discovery latency and offer quality for
// centralized broadcast vs. the DHT overlay, under churn and
// partition. Every count is exact and deterministic in the seed.
//
// Phases:
//  1. join: all nodes bootstrap through one contact; hop depth of the
//     join lookups.
//  2. lookup: iterative lookups from scattered sources converge on the
//     exact nearest node in O(log n) rounds.
//  3. discovery: a roaming device attaches via (a) broadcast — it
//     takes the cheapest local offer, which is the lying provider —
//     and (b) the overlay, where gossiped audit reputation filters the
//     liar before attach.
//  4. store: a content-addressed module manifest is fetched and
//     installed through the DHT; with every replica tampering, the
//     fetch is rejected by signature/content-key re-verification.
//  5. churn: a quarter of the overlay crashes; lookups still converge.
//  6. partition: the inter-cluster bridge is severed and healed;
//     fetches fail cross-partition and recover after heal.
func E16(p E16Params) *Result {
	res := &Result{
		ID:     "E16",
		Title:  "decentralized discovery overlay",
		Claim:  "provider discovery, the PVN Store and reputations need no central coordinator (paper S3.1)",
		Header: []string{"scenario", "outcome", "count", "p50", "p99"},
	}

	link := netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 100e6}
	bridge := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 1e9}
	nA := p.Nodes / 2
	net, hubs, leaves := netsim.NewDualStarTopology(p.Seed, nA, p.Nodes-nA, link, bridge)
	clock := net.Clock

	// Overlay nodes with deterministic identities.
	nodes := make([]*overlay.Node, 0, p.Nodes)
	for _, side := range leaves {
		for _, leaf := range side {
			kp, err := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + uint64(len(nodes)) + 1))
			if err != nil {
				panic("e16: keygen: " + err.Error())
			}
			nodes = append(nodes, overlay.NewNode(leaf, kp, overlay.Config{}))
		}
	}

	// Phase 1: staggered join through node 0.
	joinHops := &netsim.Dist{}
	for i := 1; i < len(nodes); i++ {
		i := i
		clock.Schedule(time.Duration(i)*20*time.Millisecond, func() {
			nodes[i].Join(nodes[0].Self(), func(r overlay.LookupResult) {
				joinHops.Add(float64(r.Rounds))
			})
		})
	}
	clock.Run()
	joined := 0
	for _, n := range nodes {
		if n.Table().Len() > 0 {
			joined++
		}
	}
	res.AddRow("join", "bootstrapped via 1 contact",
		fmt.Sprintf("%d/%d", joined, p.Nodes), f1(joinHops.Percentile(50)), f1(joinHops.Percentile(99)))
	res.SetMetric("join_hops_p50", joinHops.Percentile(50))
	res.SetMetric("join_hops_p99", joinHops.Percentile(99))

	// Phase 2: lookup convergence. Sources and targets stride through
	// the population so samples cover both clusters.
	hopBound := bits.Len(uint(p.Nodes)) // ceil(log2 n)+1
	lookupHops := &netsim.Dist{}
	exact := 0
	for i := 0; i < p.Lookups; i++ {
		src := nodes[(i*13+1)%len(nodes)]
		target := nodes[(i*29+7)%len(nodes)].Self().ID
		var got overlay.LookupResult
		src.Lookup(target, func(r overlay.LookupResult) { got = r })
		clock.Run()
		lookupHops.Add(float64(got.Rounds))
		if len(got.Closest) > 0 && got.Closest[0].ID == target {
			exact++
		}
	}
	res.AddRow("lookup", "nearest is exact target",
		fmt.Sprintf("%d/%d", exact, p.Lookups), f1(lookupHops.Percentile(50)), f1(lookupHops.Percentile(99)))
	res.SetMetric("lookup_hops_p50", lookupHops.Percentile(50))
	res.SetMetric("lookup_hops_p99", lookupHops.Percentile(99))
	res.SetMetric("lookup_hops_max", lookupHops.Max())
	res.Findingf("iterative lookups converge in p99 %.0f rounds on %d nodes (O(log n) bound %d)",
		lookupHops.Percentile(99), p.Nodes, hopBound)

	// Providers publish signed advertisements under the service key.
	std := []string{discovery.StandardMatchAction, discovery.StandardMiddlebox}
	honestKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + 900001))
	liarKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + 900002))
	backupKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + 900003))
	ads := []struct {
		ad  overlay.OfferAd
		kp  pki.KeyPair
		via int
	}{
		{overlay.OfferAd{Provider: "isp-honest", DeployServer: "h", Standards: std,
			Supported: map[string]int64{"tls-verify": 10, "pii-detect": 10, "transcoder": 10}}, honestKey, 1},
		{overlay.OfferAd{Provider: "isp-liar", DeployServer: "l", Standards: std,
			Supported: map[string]int64{"tls-verify": 1, "pii-detect": 1, "transcoder": 1}}, liarKey, nA + 1},
		{overlay.OfferAd{Provider: "isp-backup", DeployServer: "b", Standards: std,
			Supported: map[string]int64{"tls-verify": 20, "pii-detect": 20, "transcoder": 20}}, backupKey, 2},
	}
	for _, a := range ads {
		nodes[a.via].Put(overlay.NewOfferRecord(e16Service, a.ad, a.kp, 1), nil)
	}
	clock.Run()

	// Reputation: three devices audited the liar and fold their ledgers
	// into the gossip stream; refresh traffic spreads the claims.
	deviceIdx := len(nodes) - 2 // far side, never met any provider
	dev := nodes[deviceIdx]
	for r, reporter := range []int{5, 6, 7} {
		ledger := auditor.NewLedger()
		for i := 0; i < 10; i++ {
			ledger.RecordAudit("isp-liar")
			ledger.RecordAudit("isp-honest")
		}
		for i := 0; i < 9; i++ {
			ledger.RecordViolation(auditor.Violation{Provider: "isp-liar", Kind: auditor.ViolationSecurityBypass})
		}
		nodes[reporter].Rep().Merge(overlay.FoldLedger(fmt.Sprintf("auditor%d", r), ledger, 1))
	}
	for round := 0; round < 4; round++ {
		for i := 1; i < len(nodes); i += 6 {
			nodes[i].Refresh(nil)
		}
		dev.Refresh(nil)
		clock.Run()
	}
	preScore, preHeard := dev.Rep().Score("isp-liar")

	cfg, err := pvnc.Parse(e16Cfg)
	if err != nil {
		panic("e16: " + err.Error())
	}

	// Phase 3a: broadcast discovery. All three providers answer the
	// local broadcast; the cost-driven negotiator attaches to the
	// cheapest — the liar.
	policies := make([]*discovery.ProviderPolicy, len(ads))
	for i, a := range ads {
		policies[i] = &discovery.ProviderPolicy{
			Provider: a.ad.Provider, DeployServer: a.ad.DeployServer,
			Standards: std, Supported: a.ad.Supported,
		}
	}
	runSession := func(useOverlay bool) (discovery.SessionResult, time.Duration) {
		neg := discovery.NewNegotiator("dev-roam", cfg, 10_000, discovery.StrategyStrict)
		var out discovery.SessionResult
		var sess *discovery.Session
		sess = &discovery.Session{
			Neg:   neg,
			Clock: clock,
			Send: func(msg interface{}) {
				switch m := msg.(type) {
				case *discovery.DM:
					if useOverlay {
						return // roamed onto a PVN-oblivious network: broadcast goes unanswered
					}
					dm := m
					for _, pp := range policies {
						pp := pp
						clock.Schedule(2*link.Latency, func() {
							if o := pp.HandleDM(dm, clock.Now()); o != nil {
								sess.HandleOffer(o)
							}
						})
					}
				case *discovery.DeployRequest:
					clock.Schedule(2*link.Latency, func() {
						sess.HandleDeployResponse(&discovery.DeployResponse{OK: true, Cookie: 1})
					})
				}
			},
			Done: func(r discovery.SessionResult) { out = r },
		}
		if useOverlay {
			src := &overlay.OfferSource{Node: dev, Service: e16Service, MinScore: 0.5}
			sess.OverlayQuery = src.Query
		}
		sess.Start()
		clock.Run()
		return out, out.Elapsed
	}

	bcast, bcastLatency := runSession(false)
	bcastProvider, bcastCost := "none", int64(0)
	if bcast.Deployed {
		bcastProvider, bcastCost = bcast.Offer.Provider, bcast.Decision.Cost
	}
	res.AddRow("discover/broadcast",
		fmt.Sprintf("attached %s (cost %d)", bcastProvider, bcastCost),
		fmt.Sprintf("%d offers", bcast.OffersSeen), f1(float64(bcastLatency)/float64(time.Millisecond)), "-")
	res.SetMetric("broadcast_setup_ms", float64(bcastLatency)/float64(time.Millisecond))

	// Phase 3b: overlay discovery. The device ranks the never-seen
	// liar below honest providers via gossip before attaching.
	dht, dhtLatency := runSession(true)
	dhtProvider, dhtCost := "none", int64(0)
	if dht.Deployed {
		dhtProvider, dhtCost = dht.Offer.Provider, dht.Decision.Cost
	}
	res.AddRow("discover/overlay",
		fmt.Sprintf("attached %s (cost %d)", dhtProvider, dhtCost),
		fmt.Sprintf("%d offers", dht.OffersSeen), f1(float64(dhtLatency)/float64(time.Millisecond)), "-")
	res.SetMetric("overlay_setup_ms", float64(dhtLatency)/float64(time.Millisecond))
	// The discovery lookup's own envelopes deliver the audit gossip:
	// the device may not have heard of the liar before querying (score
	// preScore), but by attach time the claims have piggybacked in.
	liarScore, liarHeard := dev.Rep().Score("isp-liar")
	res.SetMetric("gossip_liar_score", liarScore)
	res.Findingf("broadcast attaches to the cheapest provider (%s); the overlay hears gossip (liar score %.2f heard=%v pre-query, %.2f heard=%v at attach) and attaches to %s",
		bcastProvider, preScore, preHeard, liarScore, liarHeard, dhtProvider)

	// Explicit ranking check: synthesize all three offers and rank.
	dm := discovery.NewNegotiator("dev-rank", cfg, 10_000, discovery.StrategyStrict).MakeDM()
	var offers []*discovery.Offer
	for _, a := range ads {
		rec := overlay.NewOfferRecord(e16Service, a.ad, a.kp, 1)
		ad := a.ad
		if o := ad.ToOffer(rec, dm, clock.Now()); o != nil {
			offers = append(offers, o)
		}
	}
	ranked := overlay.RankOffers(offers, dev.Rep())
	rankStr := ""
	for i, o := range ranked {
		if i > 0 {
			rankStr += " > "
		}
		rankStr += o.Provider
	}
	res.AddRow("rank", rankStr, fmt.Sprintf("%d ads", len(ranked)), "-", "-")

	// Phase 4: the distributed PVN Store. A registered publisher ships
	// a module; the device fetches it by content address.
	pubKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + 900004))
	module := &store.Module{
		Name: "acme/tracker-radar", Version: "2.0", Publisher: "acme",
		Type: "tracker-block", Config: map[string]string{"list": "ads.example"},
	}
	module.Sign(pubKey.Private)
	modKey := overlay.ModuleKey(module)
	nodes[3].Put(overlay.NewModuleRecord(module, pubKey, 1), nil)
	clock.Run()

	devStore := store.New()
	devStore.RegisterPublisher("acme", pubKey.Public)
	fetchModule := func() (installs, rejects, fetched int) {
		// Forged replica answers never reach the caller: the lookup
		// verifies each record before the merge and counts the drops
		// in the looker's BadRecords.
		before := dev.Stats.BadRecords
		var got overlay.LookupResult
		dev.Get(modKey, func(r overlay.LookupResult) { got = r })
		clock.Run()
		rejects = dev.Stats.BadRecords - before
		fetched = rejects
		for _, rec := range got.Records {
			fetched++
			m, err := overlay.DecodeModuleRecord(rec)
			if err != nil {
				rejects++
				continue
			}
			if err := devStore.InstallRemote("alice", m, modKey.String()); err != nil {
				rejects++
				continue
			}
			installs++
		}
		return
	}
	installs, rejects, fetched := fetchModule()
	res.AddRow("store/fetch", "verified & installed",
		fmt.Sprintf("%d installed, %d rejected of %d", installs, rejects, fetched), "-", "-")

	// Every replica turns malicious: swapped config, re-signed under
	// the attacker's key. The re-signed body no longer matches the
	// record's content key, so the lookup merge rejects every copy.
	evilKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + 900005))
	for _, n := range nodes {
		n.TamperStored = func(r *overlay.Record) *overlay.Record {
			if r.Kind != overlay.RecordModule {
				return nil
			}
			tm, err := store.DecodeModule(r.Body)
			if err != nil {
				return nil
			}
			tm.Config = map[string]string{"list": "exfil.example"}
			tm.Sign(evilKey.Private)
			evil := *r
			evil.Body = tm.Encode()
			evil.PublicKey = evilKey.Public
			evil.Sign(evilKey.Private)
			return &evil
		}
	}
	tInstalls, tRejects, tFetched := fetchModule()
	for _, n := range nodes {
		n.TamperStored = nil
	}
	res.AddRow("store/tampered", "re-verification rejects",
		fmt.Sprintf("%d installed, %d rejected of %d", tInstalls, tRejects, tFetched), "-", "-")
	res.SetMetric("tamper_rejects", float64(tRejects))
	res.Findingf("tampered manifests: %d/%d fetched records rejected at the device, %d installed",
		tRejects, tFetched, tInstalls)

	// Phase 5: churn. A quarter of the overlay crashes (tail of the
	// population, sparing the device and the early publisher nodes);
	// survivors refresh, then lookups still converge.
	churned := 0
	want := int(float64(p.Nodes) * p.ChurnFrac)
	for i := len(nodes) - 3; i >= 0 && churned < want; i -= 3 {
		if i < 8 { // spare bootstrap and publishers
			break
		}
		nodes[i].Leave()
		churned++
	}
	for i := 1; i < len(nodes); i += 7 {
		if nodes[i].Alive() {
			nodes[i].Refresh(nil)
		}
	}
	clock.Run()
	churnHops := &netsim.Dist{}
	churnOK := 0
	churnLookups := p.Lookups / 2
	for i := 0; i < churnLookups; i++ {
		src := nodes[(i*11+2)%len(nodes)]
		if !src.Alive() {
			src = dev
		}
		var got overlay.LookupResult
		src.Get(overlay.ServiceKey(e16Service), func(r overlay.LookupResult) { got = r })
		clock.Run()
		churnHops.Add(float64(got.Rounds))
		if got.Found {
			churnOK++
		}
	}
	res.AddRow("churn", fmt.Sprintf("%d nodes crashed, offers still found", churned),
		fmt.Sprintf("%d/%d", churnOK, churnLookups), f1(churnHops.Percentile(50)), f1(churnHops.Percentile(99)))
	res.SetMetric("churn_hops_p99", churnHops.Percentile(99))
	res.Findingf("under %.0f%% churn, %d/%d service lookups still return offers",
		p.ChurnFrac*100, churnOK, churnLookups)

	// Phase 6: partition and heal. A fresh record published on the A
	// side; the bridge is severed; fetches succeed only where a replica
	// landed, and heal restores both sides.
	partKey, _ := pki.GenerateKey(pki.NewDeterministicRand(p.Seed<<20 + 900006))
	partAd := overlay.OfferAd{Provider: "isp-part", DeployServer: "p", Standards: std,
		Supported: map[string]int64{"tls-verify": 2}}
	nodes[4].Put(overlay.NewOfferRecord("pvn-part", partAd, partKey, 1), nil)
	clock.Run()

	sever := func(lossRate float64) {
		cfgAB := hubs[0].PortTo(hubs[1].ID).Config()
		cfgAB.LossRate = lossRate
		hubs[0].PortTo(hubs[1].ID).SetConfig(cfgAB)
		cfgBA := hubs[1].PortTo(hubs[0].ID).Config()
		cfgBA.LossRate = lossRate
		hubs[1].PortTo(hubs[0].ID).SetConfig(cfgBA)
	}
	fetchPart := func(n *overlay.Node) bool {
		var got overlay.LookupResult
		n.Get(overlay.ServiceKey("pvn-part"), func(r overlay.LookupResult) { got = r })
		clock.Run()
		return got.Found
	}
	aDev, bDev := nodes[9], dev // one querier per side
	sever(1)
	partA, partB := fetchPart(aDev), fetchPart(bDev)
	sever(0)
	// Healed: let a refresh repopulate cross-side contacts evicted
	// during the partition, then fetch again.
	aDev.Refresh(nil)
	bDev.Refresh(nil)
	clock.Run()
	healA, healB := fetchPart(aDev), fetchPart(bDev)
	res.AddRow("partition", fmt.Sprintf("severed a:%v b:%v, healed a:%v b:%v", partA, partB, healA, healB),
		"1 record", "-", "-")
	res.Findingf("partition: a-side fetch %v, b-side fetch %v while severed; both %v after heal",
		partA, partB, healA && healB)

	// Total overlay RPC volume across the swarm — the "ops" count the
	// bench harness divides wall time and allocations by.
	var totalRPCs int
	for _, n := range nodes {
		totalRPCs += n.Stats.RPCsSent
	}
	res.SetMetric("ops", float64(totalRPCs))

	return res
}
