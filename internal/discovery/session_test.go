package discovery

import (
	"strings"
	"testing"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/pvnc"
)

const sessCfgSrc = `
pvnc sess
owner alice
device 10.0.0.5
middlebox tlsv tls-verify
middlebox pii pii-detect mode=block
chain secure tlsv pii
policy 100 match proto=tcp dport=443 via=secure action=forward
policy 0 match any action=forward
`

func sessConfig(t *testing.T) *pvnc.PVNC {
	t.Helper()
	cfg, err := pvnc.Parse(sessCfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func fullPolicy() *ProviderPolicy {
	return &ProviderPolicy{
		Provider: "isp", DeployServer: "d",
		Standards: []string{StandardMatchAction, StandardMiddlebox},
		Supported: map[string]int64{"tls-verify": 50, "pii-detect": 100},
	}
}

// wireSession connects a session to an in-test provider over a pair of
// fault injectors (device→provider, provider→device). deploy handles
// DeployRequests on the provider.
func wireSession(s *Session, clock *netsim.Clock, pp *ProviderPolicy,
	deploy func(*DeployRequest) *DeployResponse, up, down *netsim.FaultInjector) {
	s.Clock = clock
	s.Send = func(msg interface{}) {
		switch m := msg.(type) {
		case *DM:
			up.Deliver(clock, func() {
				offer := pp.HandleDM(m, clock.Now())
				if offer == nil {
					return
				}
				down.Deliver(clock, func() { s.HandleOffer(offer) })
			})
		case *DeployRequest:
			up.Deliver(clock, func() {
				resp := deploy(m)
				down.Deliver(clock, func() { s.HandleDeployResponse(resp) })
			})
		}
	}
}

func okDeploy(cookie uint64) func(*DeployRequest) *DeployResponse {
	return func(*DeployRequest) *DeployResponse {
		return &DeployResponse{OK: true, Cookie: cookie, DHCPRefresh: true}
	}
}

func noFaults() *netsim.FaultInjector {
	return netsim.NewFaultInjector(netsim.FaultConfig{DelayMin: time.Millisecond, DelayMax: time.Millisecond}, netsim.NewRNG(1))
}

func TestSessionHappyPath(t *testing.T) {
	clock := &netsim.Clock{}
	s := &Session{Neg: NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict)}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	wireSession(s, clock, fullPolicy(), okDeploy(7), noFaults(), noFaults())
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed || got.Fallback {
		t.Fatalf("result %+v", got)
	}
	if got.Attempts != 1 || got.Retries != 0 {
		t.Fatalf("attempts=%d retries=%d", got.Attempts, got.Retries)
	}
	if got.Response.Cookie != 7 {
		t.Fatalf("cookie %d", got.Response.Cookie)
	}
}

// TestSessionRetriesThroughLoss drops the first two DMs; the session
// must back off and succeed on the third attempt.
func TestSessionRetriesThroughLoss(t *testing.T) {
	clock := &netsim.Clock{}
	pp := fullPolicy()
	s := &Session{
		Neg:    NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{Backoff: Backoff{Initial: 50 * time.Millisecond}},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	dms := 0
	s.Clock = clock
	s.Send = func(msg interface{}) {
		switch m := msg.(type) {
		case *DM:
			dms++
			if dms <= 2 {
				return // eaten by the network
			}
			offer := pp.HandleDM(m, clock.Now())
			clock.Schedule(time.Millisecond, func() { s.HandleOffer(offer) })
		case *DeployRequest:
			clock.Schedule(time.Millisecond, func() { s.HandleDeployResponse(okDeploy(1)(m)) })
		}
	}
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed {
		t.Fatalf("result %+v", got)
	}
	if got.Attempts != 3 || got.Retries != 2 {
		t.Fatalf("attempts=%d retries=%d", got.Attempts, got.Retries)
	}
	// Two offer windows (500ms default) + backoff (50ms, 100ms) precede
	// the successful attempt.
	if got.Elapsed < 2*500*time.Millisecond+150*time.Millisecond {
		t.Fatalf("elapsed %v implausibly small", got.Elapsed)
	}
}

// TestSessionSuppressesDuplicatesAndStales: duplicated offers within a
// window and offers answering an old DM seq are both dropped.
func TestSessionSuppressesDuplicatesAndStales(t *testing.T) {
	clock := &netsim.Clock{}
	pp := fullPolicy()
	s := &Session{Neg: NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict)}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	s.Clock = clock
	s.Send = func(msg interface{}) {
		switch m := msg.(type) {
		case *DM:
			offer := pp.HandleDM(m, clock.Now())
			stale := *offer
			stale.DMSeq = m.Seq + 100 // answers a DM never sent
			clock.Schedule(time.Millisecond, func() {
				s.HandleOffer(offer)
				s.HandleOffer(offer) // duplicated in flight
				s.HandleOffer(&stale)
			})
		case *DeployRequest:
			clock.Schedule(time.Millisecond, func() { s.HandleDeployResponse(okDeploy(1)(m)) })
		}
	}
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed {
		t.Fatalf("result %+v", got)
	}
	if got.DupOffers != 1 || got.StaleOffers != 1 || got.OffersSeen != 1 {
		t.Fatalf("dup=%d stale=%d seen=%d", got.DupOffers, got.StaleOffers, got.OffersSeen)
	}
}

// TestSessionRetransmitsDeploy: the first deploy ACK is lost, forcing a
// retransmission; the retransmitted request draws a duplicated NACK
// whose second copy (arriving during the backoff that follows) is
// counted and dropped, and the next discovery round deploys cleanly.
func TestSessionRetransmitsDeploy(t *testing.T) {
	clock := &netsim.Clock{}
	pp := fullPolicy()
	s := &Session{
		Neg:    NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{Backoff: Backoff{Initial: 50 * time.Millisecond}},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	deploys := 0
	s.Clock = clock
	s.Send = func(msg interface{}) {
		switch m := msg.(type) {
		case *DM:
			offer := pp.HandleDM(m, clock.Now())
			clock.Schedule(time.Millisecond, func() { s.HandleOffer(offer) })
		case *DeployRequest:
			deploys++
			switch deploys {
			case 1:
				// ACK lost: the session must retransmit.
			case 2:
				nack := &DeployResponse{OK: false, Reason: "busy"}
				clock.Schedule(time.Millisecond, func() { s.HandleDeployResponse(nack) })
				clock.Schedule(2*time.Millisecond, func() { s.HandleDeployResponse(nack) }) // duplicated in flight
			default:
				resp := okDeploy(9)(m)
				clock.Schedule(time.Millisecond, func() { s.HandleDeployResponse(resp) })
			}
		}
	}
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed {
		t.Fatalf("result %+v", got)
	}
	if deploys != 3 {
		t.Fatalf("deploys=%d", deploys)
	}
	if got.Retries != 2 { // one deploy retransmit + one post-NACK backoff
		t.Fatalf("retries=%d", got.Retries)
	}
	if got.DupResponses != 1 || got.DeployNACKs != 1 {
		t.Fatalf("dupResponses=%d nacks=%d", got.DupResponses, got.DeployNACKs)
	}
}

// TestSessionRediscoversWhenAllDeployACKsLost: every ACK for the first
// round's deploy is dropped. Once the retransmission budget is spent the
// session must run a fresh discovery round and deploy again — this used
// to stall (and then tunnel out at the deadline) because deployTimeout
// called retryDiscovery while the state was still sessionDeploying, so
// the scheduled retry callback no-opped and no DM was ever resent.
func TestSessionRediscoversWhenAllDeployACKsLost(t *testing.T) {
	clock := &netsim.Clock{}
	pp := fullPolicy()
	s := &Session{
		Neg:    NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{Backoff: Backoff{Initial: 20 * time.Millisecond}},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	dms, deploys := 0, 0
	s.Clock = clock
	s.Send = func(msg interface{}) {
		switch m := msg.(type) {
		case *DM:
			dms++
			offer := pp.HandleDM(m, clock.Now())
			clock.Schedule(time.Millisecond, func() { s.HandleOffer(offer) })
		case *DeployRequest:
			deploys++
			if dms == 1 {
				return // the first round's deploy ACKs all vanish
			}
			resp := okDeploy(5)(m)
			clock.Schedule(time.Millisecond, func() { s.HandleDeployResponse(resp) })
		}
	}
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed || got.Fallback {
		t.Fatalf("result %+v", got)
	}
	if dms != 2 {
		t.Fatalf("discovery rounds %d, want a fresh round after deploy went unacknowledged", dms)
	}
	// Round one: initial send + 3 retransmissions; round two: one ACKed send.
	if deploys != 5 {
		t.Fatalf("deploys=%d", deploys)
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts=%d", got.Attempts)
	}
}

// TestSessionFallsBackBoundedly: a dead provider exhausts the attempt
// budget and the session signals tunnel fallback within the deadline.
func TestSessionFallsBackBoundedly(t *testing.T) {
	clock := &netsim.Clock{}
	s := &Session{
		Neg: NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{
			MaxAttempts: 3,
			Backoff:     Backoff{Initial: 50 * time.Millisecond},
			Deadline:    10 * time.Second,
		},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	s.Clock = clock
	s.Send = func(msg interface{}) {} // network ignores everything
	s.Start()
	clock.Run()
	if got == nil || got.Deployed || !got.Fallback {
		t.Fatalf("result %+v", got)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts %d", got.Attempts)
	}
	if !strings.Contains(got.Reason, "no offers") {
		t.Fatalf("reason %q", got.Reason)
	}
	if got.Elapsed >= 10*time.Second {
		t.Fatalf("elapsed %v not bounded by deadline", got.Elapsed)
	}
}

// TestSessionDeadlineFallback: with generous attempts but a short
// deadline, the deadline wins.
func TestSessionDeadlineFallback(t *testing.T) {
	clock := &netsim.Clock{}
	s := &Session{
		Neg:    NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{Deadline: 2 * time.Second, MaxAttempts: 1000},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	s.Clock = clock
	s.Send = func(msg interface{}) {}
	s.Start()
	clock.Run()
	if got == nil || !got.Fallback {
		t.Fatalf("result %+v", got)
	}
	if got.Elapsed > 2*time.Second {
		t.Fatalf("elapsed %v exceeds deadline", got.Elapsed)
	}
}

// TestSessionRenegotiates: a strict device against a partial provider
// deploys the supported subset via one CounterDM round.
func TestSessionRenegotiates(t *testing.T) {
	clock := &netsim.Clock{}
	pp := fullPolicy()
	delete(pp.Supported, "pii-detect") // partial support
	s := &Session{
		Neg:    NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{Renegotiate: true},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	wireSession(s, clock, pp, okDeploy(3), noFaults(), noFaults())
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed {
		t.Fatalf("result %+v", got)
	}
	if !got.Renegotiated || got.Attempts != 2 {
		t.Fatalf("renegotiated=%v attempts=%d", got.Renegotiated, got.Attempts)
	}
	if types := got.Decision.FinalConfig.Middleboxes; len(types) != 1 || types[0].Type != "tls-verify" {
		t.Fatalf("final config middleboxes %+v", types)
	}
}

// TestSessionRediscoversAfterNACK: a provider that NACKs (e.g. restarted
// and forgot the offer) sends the device back to discovery, which then
// succeeds.
func TestSessionRediscoversAfterNACK(t *testing.T) {
	clock := &netsim.Clock{}
	pp := fullPolicy()
	s := &Session{
		Neg:    NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict),
		Config: SessionConfig{Backoff: Backoff{Initial: 20 * time.Millisecond}},
	}
	var got *SessionResult
	s.Done = func(r SessionResult) { got = &r }
	deploys := 0
	deploy := func(m *DeployRequest) *DeployResponse {
		deploys++
		if deploys == 1 {
			return &DeployResponse{OK: false, Reason: "unknown offer (provider restarted)"}
		}
		return &DeployResponse{OK: true, Cookie: 4}
	}
	wireSession(s, clock, pp, deploy, noFaults(), noFaults())
	s.Start()
	clock.Run()
	if got == nil || !got.Deployed {
		t.Fatalf("result %+v", got)
	}
	if got.DeployNACKs != 1 || got.Attempts != 2 {
		t.Fatalf("nacks=%d attempts=%d", got.DeployNACKs, got.Attempts)
	}
}

func TestBackoffDelays(t *testing.T) {
	b := Backoff{Initial: 100 * time.Millisecond}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w {
			t.Errorf("retry %d: %v want %v", i, got, w)
		}
	}
	// Jitter stays within the configured band.
	jb := Backoff{Initial: 100 * time.Millisecond, Jitter: 0.5}
	rng := netsim.NewRNG(5)
	for i := 0; i < 100; i++ {
		d := jb.Delay(0, rng.Float64)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 150ms]", d)
		}
	}
	// The 5s cap is hard: jitter on a delay at (or near) the cap must
	// not push past it.
	cb := Backoff{Initial: 4 * time.Second, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		if d := cb.Delay(1, rng.Float64); d > 5*time.Second {
			t.Fatalf("jittered delay %v exceeds the 5s cap", d)
		}
	}
}

// TestEvaluateExpiryBoundary: an offer is void from the instant it
// expires — now == ExpiresAt must be rejected, matching the server.
func TestEvaluateExpiryBoundary(t *testing.T) {
	pp := fullPolicy()
	n := NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict)
	offer := pp.HandleDM(n.MakeDM(), 0)
	if dec := n.Evaluate(offer, offer.ExpiresAt-1); !dec.Accept {
		t.Fatalf("just-before-expiry rejected: %s", dec.Reason)
	}
	if dec := n.Evaluate(offer, offer.ExpiresAt); dec.Accept || !strings.Contains(dec.Reason, "expired") {
		t.Fatalf("at-expiry accepted: %+v", dec)
	}
}

// TestStrategyReduceDeterministic: budget trimming with tied prices must
// not depend on map iteration order.
func TestStrategyReduceDeterministic(t *testing.T) {
	src := `
pvnc ties
owner alice
device 10.0.0.5
middlebox a tls-verify
middlebox b pii-detect
middlebox c transcoder
chain ca a
chain cb b
chain cc c
policy 100 match proto=tcp dport=443 via=ca action=forward
policy 90 match proto=tcp dport=80 via=cb action=forward
policy 80 match proto=udp dport=53 via=cc action=forward
policy 0 match any action=forward
`
	cfg, err := pvnc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	offer := &Offer{
		OfferID: "o", Provider: "p",
		SupportedTypes: []string{"tls-verify", "pii-detect", "transcoder"},
		PricePerModule: map[string]int64{"tls-verify": 100, "pii-detect": 100, "transcoder": 100},
		TotalCost:      300,
		ExpiresAt:      time.Hour,
	}
	// Budget 100 keeps exactly one of three equally priced modules.
	n := NewNegotiator("dev1", cfg, 100, StrategyReduce)
	first := n.Evaluate(offer, 0)
	if !first.Accept || first.Cost != 100 || len(first.FinalConfig.Middleboxes) != 1 {
		t.Fatalf("decision %+v", first)
	}
	for i := 0; i < 100; i++ {
		dec := n.Evaluate(offer, 0)
		if dec.FinalConfig.Hash() != first.FinalConfig.Hash() {
			t.Fatalf("run %d produced a different reduced config:\n%s\nvs\n%s",
				i, dec.FinalConfig.Source(), first.FinalConfig.Source())
		}
	}
}

// TestOfferEchoesDMSeq: offers carry the seq of the DM they answer.
func TestOfferEchoesDMSeq(t *testing.T) {
	pp := fullPolicy()
	n := NewNegotiator("dev1", sessConfig(t), 1000, StrategyStrict)
	n.MakeDM()
	dm := n.MakeDM() // seq 2
	offer := pp.HandleDM(dm, 0)
	if offer.DMSeq != dm.Seq {
		t.Fatalf("offer DMSeq %d, DM seq %d", offer.DMSeq, dm.Seq)
	}
}
