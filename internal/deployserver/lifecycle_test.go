package deployserver

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/openflow"
	"pvn/internal/pvnc"
)

// negotiated runs the full discovery handshake against s and returns the
// resulting deploy request (bound to a live offer).
func negotiated(t *testing.T, s *Server, deviceID string) *discovery.DeployRequest {
	t.Helper()
	return negotiatedSrc(t, s, deviceID, cfgSrc)
}

func negotiatedSrc(t *testing.T, s *Server, deviceID, src string) *discovery.DeployRequest {
	t.Helper()
	cfg, err := pvnc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	n := discovery.NewNegotiator(deviceID, cfg, 1000, discovery.StrategyStrict)
	offer := s.HandleDM(n.MakeDM())
	if offer == nil {
		t.Fatal("no offer")
	}
	dec := n.Evaluate(offer, s.Now())
	if !dec.Accept {
		t.Fatalf("offer rejected: %s", dec.Reason)
	}
	return n.BuildDeployRequest(offer, dec)
}

// TestDeployBindsPVNCHash is the regression test for the formerly dead
// tamper check: BuildDeployRequest must bind the request to the
// negotiated config's hash, and a substituted PVNC must be NACKed.
func TestDeployBindsPVNCHash(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	req := negotiated(t, s, "dev1")
	if req.PVNCHash == "" {
		t.Fatal("BuildDeployRequest left PVNCHash empty — the server-side tamper check is dead again")
	}
	tampered := *req
	tampered.PVNCSource = strings.Replace(req.PVNCSource, "mode=block", "mode=log", 1)
	resp := s.HandleDeploy(&tampered)
	if resp.OK || !strings.Contains(resp.Reason, "hash mismatch") {
		t.Fatalf("tampered PVNC not caught: %+v", resp)
	}
	if resp := s.HandleDeploy(req); !resp.OK {
		t.Fatalf("untampered request NACKed: %s", resp.Reason)
	}
}

func TestDeployRejectsUnknownOffer(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	req := deployReq(t, 300)
	req.OfferID = "forged-99"
	resp := s.HandleDeploy(req)
	if resp.OK || !strings.Contains(resp.Reason, "unknown offer") {
		t.Fatalf("forged offer accepted: %+v", resp)
	}
}

func TestDeployRejectsExpiredOffer(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.Provider.OfferTTL = time.Second
	req := negotiated(t, s, "dev1")
	now = time.Second // exactly at expiry: void on both sides
	resp := s.HandleDeploy(req)
	if resp.OK || !strings.Contains(resp.Reason, "expired") {
		t.Fatalf("expired offer accepted: %+v", resp)
	}
}

// TestDuplicateDeployReACKed: retransmitting the same deploy (device
// never saw the ACK) is answered idempotently with the original cookie,
// and installs nothing twice.
func TestDuplicateDeployReACKed(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	req := negotiated(t, s, "dev1")
	first := s.HandleDeploy(req)
	if !first.OK {
		t.Fatal(first.Reason)
	}
	rules := s.Switch.Table.Len()
	second := s.HandleDeploy(req)
	if !second.OK || second.Cookie != first.Cookie {
		t.Fatalf("retransmission: %+v (want re-ACK of cookie %d)", second, first.Cookie)
	}
	if s.Switch.Table.Len() != rules {
		t.Fatalf("re-ACK installed more rules: %d -> %d", rules, s.Switch.Table.Len())
	}
	// A different device quoting the same offer is not a retransmission.
	other := *req
	other.DeviceID = "dev2"
	if resp := s.HandleDeploy(&other); !resp.OK {
		t.Fatalf("second device on same offer: %s", resp.Reason)
	}
}

// TestRedeployAfterLostACKs: a device whose deploy installed but whose
// ACKs were all lost abandons the offer, re-discovers, and deploys the
// same PVNC under a new offer ID. The server must recognize the hash
// match and re-ACK with the original cookie — NACKing "already has a
// deployment" would lock the device out permanently under LeaseTTL=0.
func TestRedeployAfterLostACKs(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	first := s.HandleDeploy(negotiated(t, s, "dev1"))
	if !first.OK {
		t.Fatal(first.Reason)
	}
	rules := s.Switch.Table.Len()
	insts := len(s.Runtime.InstanceIDs())
	// Fresh discovery round: new offer ID, same config and hash.
	req2 := negotiated(t, s, "dev1")
	if dep := s.Deployment("dev1"); req2.OfferID == dep.OfferID {
		t.Fatal("test needs a distinct offer ID")
	}
	second := s.HandleDeploy(req2)
	if !second.OK || second.Cookie != first.Cookie {
		t.Fatalf("same-PVNC redeploy under new offer: %+v (want re-ACK of cookie %d)", second, first.Cookie)
	}
	if s.Switch.Table.Len() != rules || len(s.Runtime.InstanceIDs()) != insts {
		t.Fatalf("re-ACK reinstalled state: rules %d->%d insts %d->%d",
			rules, s.Switch.Table.Len(), insts, len(s.Runtime.InstanceIDs()))
	}
}

// TestRedeployNewConfigSupersedes: a redeploy with a genuinely different
// PVNC replaces the stale deployment instead of being NACKed — but only
// after the new request fully validates, so a bad request never destroys
// a working deployment.
func TestRedeployNewConfigSupersedes(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	first := s.HandleDeploy(negotiated(t, s, "dev1"))
	if !first.OK {
		t.Fatal(first.Reason)
	}
	oldHash := s.Deployment("dev1").Hash
	rules := s.Switch.Table.Len()
	insts := len(s.Runtime.InstanceIDs())

	// An invalid replacement (payment too low) must leave the old
	// deployment standing.
	badSrc := strings.Replace(cfgSrc, "secrets=hunter2", "secrets=hunter3", 1)
	bad := negotiatedSrc(t, s, "dev1", badSrc)
	bad.Payment = 1
	if resp := s.HandleDeploy(bad); resp.OK {
		t.Fatal("underpaid replacement accepted")
	}
	if dep := s.Deployment("dev1"); dep == nil || dep.Hash != oldHash || dep.Cookie != first.Cookie {
		t.Fatalf("failed replacement destroyed the old deployment: %+v", s.Deployment("dev1"))
	}

	// A valid replacement supersedes: new cookie, new hash, no doubled
	// state from the old install.
	good := negotiatedSrc(t, s, "dev1", badSrc)
	resp := s.HandleDeploy(good)
	if !resp.OK {
		t.Fatalf("replacement NACKed: %s", resp.Reason)
	}
	if resp.Cookie == first.Cookie {
		t.Fatal("replacement reused the old cookie")
	}
	dep := s.Deployment("dev1")
	if dep.Hash == oldHash || dep.Hash != good.PVNCHash {
		t.Fatalf("deployment hash %q, want the replacement's %q", dep.Hash, good.PVNCHash)
	}
	if s.Switch.Table.Len() != rules || len(s.Runtime.InstanceIDs()) != insts {
		t.Fatalf("supersede leaked state: rules %d->%d insts %d->%d",
			rules, s.Switch.Table.Len(), insts, len(s.Runtime.InstanceIDs()))
	}
}

func TestLeaseExpiryAndRenew(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.LeaseTTL = 10 * time.Second
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatal(resp.Reason)
	}
	dep := s.Deployment("dev1")
	if dep.LeaseExpires != 10*time.Second {
		t.Fatalf("lease expires %v", dep.LeaseExpires)
	}
	now = 9 * time.Second
	if expired := s.SweepExpired(); len(expired) != 0 {
		t.Fatalf("live lease swept: %v", expired)
	}
	// Renew pushes the lease out from now.
	if exp, ok := s.Renew("dev1"); !ok || exp != 19*time.Second {
		t.Fatalf("renew: %v %v", exp, ok)
	}
	now = 12 * time.Second
	if expired := s.SweepExpired(); len(expired) != 0 {
		t.Fatalf("renewed lease swept: %v", expired)
	}
	now = 19 * time.Second // lapse is inclusive: now >= expiry
	if expired := s.SweepExpired(); len(expired) != 1 || expired[0].DeviceID != "dev1" {
		t.Fatalf("sweep: %v", expired)
	}
	if s.Switch.Table.Len() != 0 || len(s.Runtime.InstancesOf("alice")) != 0 {
		t.Fatal("swept deployment left state behind")
	}
	if s.Runtime.MemoryUsed() != 0 {
		t.Fatalf("swept deployment holds %d bytes", s.Runtime.MemoryUsed())
	}
	// The lapsed device cannot renew; it must redeploy.
	if _, ok := s.Renew("dev1"); ok {
		t.Fatal("renewed a lapsed lease")
	}
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatalf("redeploy after lapse: %s", resp.Reason)
	}
}

func TestLeaseZeroTTLNeverExpires(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatal(resp.Reason)
	}
	now = 1000 * time.Hour
	if expired := s.SweepExpired(); len(expired) != 0 {
		t.Fatalf("infinite lease swept: %v", expired)
	}
	if exp, ok := s.Renew("dev1"); !ok || exp != 0 {
		t.Fatalf("renew under zero TTL: %v %v", exp, ok)
	}
}

// TestRestartReclaimsOrphans: a crash loses the deployment and offer
// books while installed state keeps running; ReclaimOrphans must mop up
// every leaked rule, meter, chain and instance — including the sharded
// dataplane mirror.
func TestRestartReclaimsOrphans(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	// A config with a rate policy so a meter is installed too.
	src := cfgSrc + "policy 50 match proto=udp dport=53 rate=1mbps action=forward\n"
	cfg, err := pvnc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	req := &discovery.DeployRequest{DeviceID: "dev1", PVNCSource: cfg.Source(), Payment: 300}
	if resp := s.HandleDeploy(req); !resp.OK {
		t.Fatal(resp.Reason)
	}
	preReq := negotiated(t, s, "dev-pre") // offer issued before the crash

	rules, meters := s.Switch.Table.Len(), len(s.Switch.Table.MeterIDs())
	insts := len(s.Runtime.InstanceIDs())
	if rules == 0 || meters == 0 || insts == 0 {
		t.Fatalf("deploy installed nothing: rules=%d meters=%d insts=%d", rules, meters, insts)
	}

	s.Restart()
	if s.Deployment("dev1") != nil {
		t.Fatal("deployment book survived the crash")
	}
	if s.Switch.Table.Len() != rules || len(s.Runtime.InstanceIDs()) != insts {
		t.Fatal("restart itself must not touch installed state")
	}
	// Offers from before the crash are gone with the book.
	if resp := s.HandleDeploy(preReq); resp.OK || !strings.Contains(resp.Reason, "unknown offer") {
		t.Fatalf("pre-crash offer honoured after restart: %+v", resp)
	}

	gotRules, gotMeters, gotChains, gotInsts := s.ReclaimOrphans()
	if gotRules == 0 || gotMeters != meters || gotInsts != insts || gotChains == 0 {
		t.Fatalf("reclaimed rules=%d meters=%d chains=%d insts=%d", gotRules, gotMeters, gotChains, gotInsts)
	}
	if s.Switch.Table.Len() != 0 || s.ExtraRules.Len() != 0 {
		t.Fatalf("rules leaked: table=%d extra=%d", s.Switch.Table.Len(), s.ExtraRules.Len())
	}
	if len(s.Switch.Table.MeterIDs()) != 0 || len(s.Runtime.ChainKeys()) != 0 || len(s.Runtime.InstanceIDs()) != 0 {
		t.Fatal("orphans survived reclaim")
	}
	if s.Runtime.MemoryUsed() != 0 {
		t.Fatalf("reclaim leaked %d bytes", s.Runtime.MemoryUsed())
	}
	// The reborn server accepts fresh deployments.
	if resp := s.HandleDeploy(negotiated(t, s, "dev1")); !resp.OK {
		t.Fatalf("post-recovery deploy: %s", resp.Reason)
	}
}

// TestReclaimSparesTrackedDeployments: reclaim after a partial crash
// (some deployments survived in the book) removes only untracked state.
func TestReclaimSparesTrackedDeployments(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatal(resp.Reason)
	}
	rules := s.Switch.Table.Len()
	r, m, c, i := s.ReclaimOrphans()
	if r+m+c+i != 0 {
		t.Fatalf("reclaim touched tracked state: %d/%d/%d/%d", r, m, c, i)
	}
	if s.Switch.Table.Len() != rules {
		t.Fatal("tracked rules removed")
	}
}

// TestRollbackOnInstantiateFailure: a type the provider prices but the
// runtime cannot build (ErrUnknownType mid-deploy) must leave zero
// residue — instances, memory, chains, meters, rules, mirror.
func TestRollbackOnInstantiateFailure(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	s.Provider.Supported["mystery-box"] = 10 // priced but not registered
	src := strings.Replace(cfgSrc,
		"middlebox pii pii-detect mode=block secrets=hunter2",
		"middlebox pii mystery-box", 1)
	cfg, err := pvnc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	req := &discovery.DeployRequest{DeviceID: "dev1", PVNCSource: cfg.Source(), Payment: 300}
	resp := s.HandleDeploy(req)
	if resp.OK || !strings.Contains(resp.Reason, "instantiate") {
		t.Fatalf("deploy of unbuildable type: %+v", resp)
	}
	assertPristine(t, s)
}

// TestRollbackOnChainConflict: a BuildChainIn failure (the namespace/name
// already exists) rolls back the instances created before it.
func TestRollbackOnChainConflict(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	// Occupy the exact chain key the deploy will want: alice.dev1/secure.
	squat, err := s.Runtime.Instantiate("alice", "tls-verify", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Runtime.BuildChainIn("alice", "alice.dev1", "secure", []string{squat.ID}, nil); err != nil {
		t.Fatal(err)
	}
	preMem := s.Runtime.MemoryUsed()

	resp := s.HandleDeploy(deployReq(t, 300))
	if resp.OK || !strings.Contains(resp.Reason, "chain") {
		t.Fatalf("conflicting deploy: %+v", resp)
	}
	if got := len(s.Runtime.InstanceIDs()); got != 1 {
		t.Fatalf("%d instances after rollback (want the 1 pre-existing)", got)
	}
	if s.Runtime.MemoryUsed() != preMem {
		t.Fatalf("memory %d != pre-deploy %d", s.Runtime.MemoryUsed(), preMem)
	}
	if len(s.Runtime.ChainKeys()) != 1 {
		t.Fatalf("chains: %v", s.Runtime.ChainKeys())
	}
	if s.Switch.Table.Len() != 0 || s.ExtraRules.Len() != 0 || len(s.Switch.Table.MeterIDs()) != 0 {
		t.Fatal("switch state leaked by rollback")
	}
}

// TestTeardownRemovesMeters is the regression test for the meter leak:
// teardown used to leave dep.Meters installed forever.
func TestTeardownRemovesMeters(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	src := cfgSrc + "policy 50 match proto=udp dport=53 rate=1mbps action=forward\n"
	cfg, err := pvnc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	req := &discovery.DeployRequest{DeviceID: "dev1", PVNCSource: cfg.Source(), Payment: 300}
	if resp := s.HandleDeploy(req); !resp.OK {
		t.Fatal(resp.Reason)
	}
	if len(s.Switch.Table.MeterIDs()) == 0 {
		t.Fatal("rate policy installed no meter")
	}
	if _, _, err := s.Teardown("dev1"); err != nil {
		t.Fatal(err)
	}
	if len(s.Switch.Table.MeterIDs()) != 0 {
		t.Fatalf("teardown leaked meters: %v", s.Switch.Table.MeterIDs())
	}
}

func assertPristine(t *testing.T, s *Server) {
	t.Helper()
	if n := len(s.Runtime.InstanceIDs()); n != 0 {
		t.Fatalf("%d instances leaked", n)
	}
	if s.Runtime.MemoryUsed() != 0 {
		t.Fatalf("%d bytes leaked", s.Runtime.MemoryUsed())
	}
	if n := len(s.Runtime.ChainKeys()); n != 0 {
		t.Fatalf("%d chains leaked", n)
	}
	if n := len(s.Switch.Table.MeterIDs()); n != 0 {
		t.Fatalf("%d meters leaked", n)
	}
	if s.Switch.Table.Len() != 0 {
		t.Fatalf("%d rules leaked", s.Switch.Table.Len())
	}
	if s.ExtraRules != nil && (s.ExtraRules.Len() != 0 || len(s.ExtraRules.MeterIDs()) != 0) {
		t.Fatalf("%d mirrored rules, %d mirrored meters leaked", s.ExtraRules.Len(), len(s.ExtraRules.MeterIDs()))
	}
}

// TestConcurrentLifecycle drives discovery, deploy, usage, manifest,
// renew and teardown from many goroutines at once. Run under -race (make
// test-race) this is the regression test for the unguarded nextOffer /
// deployments / nextCookie mutations.
func TestConcurrentLifecycle(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.LeaseTTL = time.Hour

	cfg, err := pvnc.Parse(cfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	const devices = 16
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			deviceID := fmt.Sprintf("dev-%d", d)
			n := discovery.NewNegotiator(deviceID, cfg, 1000, discovery.StrategyStrict)
			for round := 0; round < 5; round++ {
				offer := s.HandleDM(n.MakeDM())
				if offer == nil {
					errs <- fmt.Errorf("%s: no offer", deviceID)
					return
				}
				dec := n.Evaluate(offer, s.Now())
				if !dec.Accept {
					errs <- fmt.Errorf("%s: %s", deviceID, dec.Reason)
					return
				}
				resp := s.HandleDeploy(n.BuildDeployRequest(offer, dec))
				if !resp.OK {
					errs <- fmt.Errorf("%s: deploy: %s", deviceID, resp.Reason)
					return
				}
				s.HandleDeploy(n.BuildDeployRequest(offer, dec)) // duplicate re-ACK path
				s.Usage(deviceID)
				s.BuildManifest(deviceID)
				s.Renew(deviceID)
				if _, _, err := s.Teardown(deviceID); err != nil {
					errs <- fmt.Errorf("%s: teardown: %v", deviceID, err)
					return
				}
			}
		}(d)
	}
	// Background sweeper and reclaimer racing the deployers.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.SweepExpired()
				s.ReclaimOrphans()
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertPristine(t, s)
}
