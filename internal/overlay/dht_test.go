package overlay

import (
	"math/bits"
	"testing"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/netsim"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/store"
)

// swarmLink is the per-leaf link every DHT test uses: fast, clean and
// deterministic (no loss, no jitter).
var swarmLink = netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 100e6}

// newSwarm builds an n-node overlay on a star topology and joins every
// node through node 0, staggered so the network fills in gradually.
func newSwarm(t testing.TB, seed uint64, n int, cfg Config) (*netsim.Network, []*Node) {
	t.Helper()
	net, _, leaves := netsim.NewStarTopology(seed, n, swarmLink)
	nodes := make([]*Node, n)
	for i := range nodes {
		kp, err := pki.GenerateKey(pki.NewDeterministicRand(seed<<16 + uint64(i) + 1))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(leaves[i], kp, cfg)
	}
	for i := 1; i < n; i++ {
		i := i
		net.Clock.Schedule(time.Duration(i)*50*time.Millisecond, func() {
			nodes[i].Join(nodes[0].Self(), nil)
		})
	}
	net.Clock.Run()
	return net, nodes
}

func TestDHTJoinPopulatesTables(t *testing.T) {
	_, nodes := newSwarm(t, 1, 32, Config{})
	for i, n := range nodes {
		if n.Table().Len() == 0 {
			t.Fatalf("node %d has an empty table after join", i)
		}
	}
}

func TestDHTLookupConvergesInLogNRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node swarm")
	}
	const n = 64
	net, nodes := newSwarm(t, 2, n, Config{})
	bound := bits.Len(uint(n)) // ceil(log2 n)+1: generous Kademlia hop bound

	for _, src := range []int{1, 17, 33, 63} {
		target := nodes[(src*7+5)%n].Self().ID
		var res LookupResult
		nodes[src].Lookup(target, func(r LookupResult) { res = r })
		net.Clock.Run()
		if len(res.Closest) == 0 {
			t.Fatalf("src %d: empty result", src)
		}
		if res.Closest[0].ID != target {
			t.Errorf("src %d: nearest found %s, want exact target", src, res.Closest[0].ID)
		}
		if res.Rounds > bound {
			t.Errorf("src %d: %d rounds exceeds O(log n) bound %d", src, res.Rounds, bound)
		}
	}
}

func TestDHTPutGetOfferRecord(t *testing.T) {
	net, nodes := newSwarm(t, 3, 24, Config{})
	kp := testKey(t, 99)
	ad := OfferAd{
		Provider:     "isp-a",
		DeployServer: "d",
		Standards:    []string{discovery.StandardMatchAction},
		Supported:    map[string]int64{"tls-verify": 5},
	}
	rec := NewOfferRecord("pvn", ad, kp, 1)

	var acks int
	nodes[1].Put(rec, func(n int) { acks = n })
	net.Clock.Run()
	if acks == 0 {
		t.Fatal("no replica acknowledged the put")
	}

	var res LookupResult
	nodes[20].Get(ServiceKey("pvn"), func(r LookupResult) { res = r })
	net.Clock.Run()
	if !res.Found || len(res.Records) != 1 {
		t.Fatalf("get: found=%v records=%d", res.Found, len(res.Records))
	}
	got, err := DecodeOfferAd(res.Records[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Provider != "isp-a" {
		t.Fatalf("fetched ad %+v", got)
	}
}

func TestDHTNewerSeqSupersedes(t *testing.T) {
	net, nodes := newSwarm(t, 4, 16, Config{})
	kp := testKey(t, 100)
	ad := OfferAd{Provider: "isp-a", DeployServer: "d", Standards: []string{"s/1"}, Supported: map[string]int64{"t": 1}}
	nodes[1].Put(NewOfferRecord("pvn", ad, kp, 1), nil)
	net.Clock.Run()
	ad.Supported = map[string]int64{"t": 2}
	nodes[1].Put(NewOfferRecord("pvn", ad, kp, 2), nil)
	net.Clock.Run()

	var res LookupResult
	nodes[10].Get(ServiceKey("pvn"), func(r LookupResult) { res = r })
	net.Clock.Run()
	if len(res.Records) != 1 || res.Records[0].Seq != 2 {
		t.Fatalf("records %d seq %d, want the seq-2 version only", len(res.Records), res.Records[0].Seq)
	}
}

func TestDHTRejectsForgedStore(t *testing.T) {
	net, nodes := newSwarm(t, 5, 8, Config{})
	kp := testKey(t, 101)
	ad := OfferAd{Provider: "isp-a", DeployServer: "d", Standards: []string{"s/1"}, Supported: map[string]int64{"t": 1}}
	rec := NewOfferRecord("pvn", ad, kp, 1)
	rec.Body = []byte(`{"provider":"isp-a","supported":{"t":0}}`) // tamper after signing

	var acks int
	nodes[1].Put(rec, func(n int) { acks = n })
	net.Clock.Run()
	if acks != 0 {
		t.Fatalf("forged record got %d acks, want 0", acks)
	}
	bad := 0
	for _, n := range nodes {
		bad += n.Stats.BadRecords
		if len(n.records) != 0 {
			t.Fatal("a replica stored a forged record")
		}
	}
	if bad == 0 {
		t.Fatal("no replica counted the rejection")
	}
}

func TestDHTTamperedModuleRejectedAtFetch(t *testing.T) {
	net, nodes := newSwarm(t, 6, 16, Config{Replicate: 16})
	kp := testKey(t, 102)
	m := signedModule(t, kp)
	rec := NewModuleRecord(m, kp, 1)
	key := ModuleKey(m)

	var acks int
	nodes[1].Put(rec, func(n int) { acks = n })
	net.Clock.Run()
	if acks == 0 {
		t.Fatal("module never stored")
	}

	// Every replica turns malicious: they serve a manifest with the
	// config swapped, re-signed under their own key.
	evilKey := testKey(t, 103)
	for _, n := range nodes {
		n.TamperStored = func(r *Record) *Record {
			if r.Kind != RecordModule {
				return nil
			}
			tm, err := store.DecodeModule(r.Body)
			if err != nil {
				return nil
			}
			tm.Config = map[string]string{"list": "evil.example"}
			tm.Sign(evilKey.Private)
			evil := *r
			evil.Body = tm.Encode()
			evil.PublicKey = evilKey.Public
			evil.Sign(evilKey.Private)
			return &evil
		}
	}

	var res LookupResult
	nodes[10].Get(key, func(r LookupResult) { res = r })
	net.Clock.Run()
	// Tampered records are dropped at the lookup merge: the re-signed
	// body no longer matches the record's content key, so Verify fails
	// and nothing reaches the caller.
	if res.Found {
		t.Fatalf("tampered records must be rejected at the merge, got %d", len(res.Records))
	}
	if nodes[10].Stats.BadRecords == 0 {
		t.Fatal("looker did not count the rejected records")
	}

	// Honest replicas (hook removed): the same fetch verifies and
	// installs end to end.
	for _, n := range nodes {
		n.TamperStored = nil
	}
	nodes[10].Get(key, func(r LookupResult) { res = r })
	net.Clock.Run()
	got, err := DecodeModuleRecord(res.Records[0])
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	s.RegisterPublisher("acme", kp.Public)
	if err := s.InstallRemote("alice", got, key.String()); err != nil {
		t.Fatal(err)
	}
}

// A single malicious replica answers a find-value with a forged copy
// of an honest record whose Seq is inflated. Seq is covered by the
// signature, so the forgery cannot verify — but before lookups
// verified at the merge, the fake's higher Seq displaced the honest,
// verifiable record from the highest-Seq-per-publisher merge and the
// caller was left with junk it could only reject. (Found by a taint
// analysis: onReply stored wire-decoded records without a Verify on the
// path. The merge now holds only verified records, so that code no
// longer compiles.)
func TestDHTForgedHighSeqCannotDisplaceHonestRecord(t *testing.T) {
	net, nodes := newSwarm(t, 10, 16, Config{Replicate: 16})
	kp := testKey(t, 107)
	ad := OfferAd{Provider: "isp-a", DeployServer: "d", Standards: []string{"s/1"}, Supported: map[string]int64{"t": 1}}
	var acks int
	nodes[1].Put(NewOfferRecord("pvn", ad, kp, 1), func(n int) { acks = n })
	net.Clock.Run()
	if acks == 0 {
		t.Fatal("record never stored")
	}

	// One replica turns malicious and serves the stored record with
	// Seq bumped to 99 (invalidating the signature it leaves intact).
	nodes[3].TamperStored = func(r *Record) *Record {
		evil := *r
		evil.Seq = 99
		return &evil
	}

	var res LookupResult
	nodes[10].Get(ServiceKey("pvn"), func(r LookupResult) { res = r })
	net.Clock.Run()
	if !res.Found || len(res.Records) != 1 {
		t.Fatalf("get: found=%v records=%d", res.Found, len(res.Records))
	}
	if res.Records[0].Seq != 1 {
		t.Fatalf("merged record has seq %d: a forged high-Seq copy displaced the honest record", res.Records[0].Seq)
	}
	if _, err := DecodeOfferAd(res.Records[0]); err != nil {
		t.Fatalf("honest record no longer decodes: %v", err)
	}
	if nodes[10].Stats.BadRecords == 0 {
		t.Fatal("looker did not count the forged record")
	}
}

func TestDHTSurvivesChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("48-node swarm")
	}
	const n = 48
	net, nodes := newSwarm(t, 7, n, Config{})
	kp := testKey(t, 104)
	ad := OfferAd{Provider: "isp-a", DeployServer: "d", Standards: []string{"s/1"}, Supported: map[string]int64{"t": 1}}
	nodes[1].Put(NewOfferRecord("pvn", ad, kp, 1), nil)
	net.Clock.Run()

	// A quarter of the nodes crash (not the publisher's replicas alone:
	// every third node from the tail).
	for i := n - 1; i >= n-(n/4); i-- {
		nodes[i].Leave()
	}
	// Survivors refresh so tables shed the dead.
	for i := 1; i < n-(n/4); i += 5 {
		nodes[i].Refresh(nil)
	}
	net.Clock.Run()

	var res LookupResult
	nodes[2].Get(ServiceKey("pvn"), func(r LookupResult) { res = r })
	net.Clock.Run()
	if !res.Found {
		t.Fatal("record lost under 25% churn")
	}
}

func TestDHTGossipPropagates(t *testing.T) {
	net, nodes := newSwarm(t, 8, 16, Config{})
	// Node 1 has audited a liar; fold it into its rep store.
	nodes[1].Rep().Merge([]RepClaim{{Provider: "isp-liar", Reporter: "dev1", Seq: 1, Audits: 10, Violations: 9}})

	// Traffic spreads claims: a few lookups from node 1 push its sample
	// out; further lookups by others pull merged copies onward.
	for round := 0; round < 3; round++ {
		for _, src := range []int{1, 5, 9, 13} {
			nodes[src].Refresh(nil)
		}
		net.Clock.Run()
	}

	heard := 0
	for _, n := range nodes {
		if s, ok := n.Rep().Score("isp-liar"); ok && s < 0.2 {
			heard++
		}
	}
	if heard < len(nodes)/2 {
		t.Fatalf("only %d/%d nodes heard the gossip", heard, len(nodes))
	}
}

func TestSessionOverlayIntegration(t *testing.T) {
	net, nodes := newSwarm(t, 9, 16, Config{})

	// Two providers advertise under the service key: an honest one and
	// a cheaper one that gossip says bypasses security.
	honestKey, liarKey := testKey(t, 105), testKey(t, 106)
	std := []string{discovery.StandardMatchAction, discovery.StandardMiddlebox}
	nodes[1].Put(NewOfferRecord("pvn", OfferAd{
		Provider: "isp-honest", DeployServer: "h", Standards: std,
		Supported: map[string]int64{"tls-verify": 10, "pii-detect": 10, "transcoder": 10},
	}, honestKey, 1), nil)
	nodes[2].Put(NewOfferRecord("pvn", OfferAd{
		Provider: "isp-liar", DeployServer: "l", Standards: std,
		Supported: map[string]int64{"tls-verify": 1, "pii-detect": 1, "transcoder": 1},
	}, liarKey, 1), nil)
	net.Clock.Run()

	// The device's overlay node heard gossip about the liar.
	dev := nodes[10]
	dev.Rep().Merge([]RepClaim{{Provider: "isp-liar", Reporter: "dev9", Seq: 1, Audits: 10, Violations: 10, Bypasses: 10}})

	src := &OfferSource{Node: dev, Service: "pvn", MinScore: 0.5}
	neg := discovery.NewNegotiator("dev1", sessionTestConfig(t), 10_000, discovery.StrategyStrict)
	var result discovery.SessionResult
	var sess *discovery.Session
	sess = &discovery.Session{
		Neg:   neg,
		Clock: net.Clock,
		Send: func(msg interface{}) {
			// No broadcast transport in this test; deploys ACK after one
			// simulated millisecond.
			if _, ok := msg.(*discovery.DeployRequest); ok {
				net.Clock.Schedule(time.Millisecond, func() {
					sess.HandleDeployResponse(&discovery.DeployResponse{OK: true, Cookie: 1})
				})
			}
		},
		Done:         func(r discovery.SessionResult) { result = r },
		OverlayQuery: src.Query,
	}
	sess.Start()
	net.Clock.Run()

	if !result.Deployed {
		t.Fatalf("session did not deploy: %+v", result)
	}
	if result.Offer.Provider != "isp-honest" {
		t.Fatalf("deployed with %s, want isp-honest (liar filtered by gossip)", result.Offer.Provider)
	}
	if src.AdsSeen != 2 || src.AdsFiltered != 1 {
		t.Fatalf("source counters: seen=%d filtered=%d", src.AdsSeen, src.AdsFiltered)
	}
}

func sessionTestConfig(t *testing.T) *pvnc.PVNC {
	t.Helper()
	cfg, err := pvnc.Parse(`
pvnc overlay-test
owner alice
device 10.0.0.1
middlebox tlsv tls-verify
middlebox pii pii-detect mode=block
middlebox vid transcoder
chain secure tlsv pii
policy 100 match proto=tcp dport=443 via=secure action=forward
policy 0 match any action=forward
`)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
