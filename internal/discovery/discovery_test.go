package discovery

import (
	"strings"
	"testing"
	"time"

	"pvn/internal/pvnc"
)

const cfgSrc = `
pvnc test-cfg
owner alice
device 10.0.0.5
middlebox tlsv tls-verify
middlebox pii pii-detect mode=block
middlebox vid transcoder
chain secure tlsv pii
chain video vid
policy 100 match proto=tcp dport=443 via=secure action=forward
policy 80 match dst=203.0.113.0/24 via=video action=forward
policy 0 match any action=forward
`

func testConfig(t testing.TB) *pvnc.PVNC {
	t.Helper()
	p, err := pvnc.Parse(cfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func fullProvider() *ProviderPolicy {
	return &ProviderPolicy{
		Provider:     "isp-full",
		DeployServer: "pvn-host",
		Standards:    []string{StandardMatchAction, StandardMiddlebox},
		Supported:    map[string]int64{"tls-verify": 100, "pii-detect": 200, "transcoder": 300},
	}
}

func TestMakeDMSequence(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	dm1 := n.MakeDM()
	dm2 := n.MakeDM()
	if dm1.Seq != 1 || dm2.Seq != 2 {
		t.Fatalf("sequence %d,%d", dm1.Seq, dm2.Seq)
	}
	if len(dm1.RequiredTypes) != 3 {
		t.Fatalf("required types %v", dm1.RequiredTypes)
	}
	if dm1.PVNCHash == "" || dm1.Resources.NumMiddleboxes != 3 {
		t.Fatalf("dm %+v", dm1)
	}
}

func TestProviderFullOffer(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	offer := fullProvider().HandleDM(n.MakeDM(), 0)
	if offer == nil {
		t.Fatal("no offer")
	}
	if !offer.SupportsAll([]string{"tls-verify", "pii-detect", "transcoder"}) {
		t.Fatalf("offer %+v", offer)
	}
	if offer.TotalCost != 600 {
		t.Fatalf("cost %d", offer.TotalCost)
	}
	if offer.ExpiresAt != 30*time.Second {
		t.Fatalf("expiry %v", offer.ExpiresAt)
	}
}

func TestProviderDisabledAndStandardMismatch(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	dm := n.MakeDM()

	p := fullProvider()
	p.Disabled = true
	if p.HandleDM(dm, 0) != nil {
		t.Fatal("disabled provider answered")
	}
	q := fullProvider()
	q.Standards = []string{"proprietary/9"}
	if q.HandleDM(dm, 0) != nil {
		t.Fatal("standard-mismatched provider answered")
	}
}

func TestProviderMemoryCap(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	p := fullProvider()
	p.MaxMemoryBytes = 1 // absurdly small
	if p.HandleDM(n.MakeDM(), 0) != nil {
		t.Fatal("over-capacity request got an offer")
	}
}

func TestStrictAcceptsFullOfferWithinBudget(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	offer := fullProvider().HandleDM(n.MakeDM(), 0)
	dec := n.Evaluate(offer, 0)
	if !dec.Accept || dec.Cost != 600 || len(dec.Dropped) != 0 {
		t.Fatalf("decision %+v", dec)
	}
	if dec.FinalConfig.Hash() != n.Config.Hash() {
		t.Fatal("strict acceptance changed the config")
	}
}

func TestStrictRejectsPartialAndOverBudget(t *testing.T) {
	cfg := testConfig(t)
	partial := &ProviderPolicy{Provider: "isp-partial", DeployServer: "d",
		Standards: []string{StandardMatchAction},
		Supported: map[string]int64{"tls-verify": 10}}
	n := NewNegotiator("dev1", cfg, 1000, StrategyStrict)
	dec := n.Evaluate(partial.HandleDM(n.MakeDM(), 0), 0)
	if dec.Accept {
		t.Fatal("strict accepted partial offer")
	}

	n2 := NewNegotiator("dev1", cfg, 100, StrategyStrict) // budget too low
	dec = n2.Evaluate(fullProvider().HandleDM(n2.MakeDM(), 0), 0)
	if dec.Accept || !strings.Contains(dec.Reason, "budget") {
		t.Fatalf("decision %+v", dec)
	}
}

func TestExpiredOfferRejected(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	offer := fullProvider().HandleDM(n.MakeDM(), 0)
	dec := n.Evaluate(offer, time.Minute) // past the 30s TTL
	if dec.Accept || !strings.Contains(dec.Reason, "expired") {
		t.Fatalf("decision %+v", dec)
	}
}

func TestReduceStrategyDeploysSubset(t *testing.T) {
	partial := &ProviderPolicy{Provider: "isp-partial", DeployServer: "d",
		Standards: []string{StandardMatchAction},
		Supported: map[string]int64{"tls-verify": 100, "pii-detect": 100}} // no transcoder
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyReduce)
	dec := n.Evaluate(partial.HandleDM(n.MakeDM(), 0), 0)
	if !dec.Accept {
		t.Fatalf("decision %+v", dec)
	}
	if dec.Cost != 200 {
		t.Fatalf("cost %d", dec.Cost)
	}
	if len(dec.FinalConfig.Middleboxes) != 2 {
		t.Fatalf("final config has %d middleboxes", len(dec.FinalConfig.Middleboxes))
	}
	if len(dec.Dropped) == 0 {
		t.Fatal("nothing reported dropped")
	}
	if errs := dec.FinalConfig.Validate(); len(errs) != 0 {
		t.Fatalf("reduced config invalid: %v", errs)
	}
}

func TestReduceStrategyRespectsBudget(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 350, StrategyReduce)
	dec := n.Evaluate(fullProvider().HandleDM(n.MakeDM(), 0), 0)
	if !dec.Accept {
		t.Fatalf("decision %+v", dec)
	}
	if dec.Cost > 350 {
		t.Fatalf("cost %d over budget", dec.Cost)
	}
	// Transcoder (300) is the most expensive: it goes first, leaving
	// tls-verify(100)+pii-detect(200)=300.
	if dec.Cost != 300 {
		t.Fatalf("cost %d, want 300", dec.Cost)
	}
	if len(dec.FinalConfig.Middleboxes) != 2 {
		t.Fatalf("middleboxes %d", len(dec.FinalConfig.Middleboxes))
	}
}

func TestFreeOnlyStrategy(t *testing.T) {
	p := &ProviderPolicy{Provider: "isp-freemium", DeployServer: "d",
		Standards: []string{StandardMatchAction},
		Supported: map[string]int64{"tls-verify": 0, "pii-detect": 500, "transcoder": 500}}
	n := NewNegotiator("dev1", testConfig(t), 10_000, StrategyFreeOnly)
	dec := n.Evaluate(p.HandleDM(n.MakeDM(), 0), 0)
	if !dec.Accept || dec.Cost != 0 {
		t.Fatalf("decision %+v", dec)
	}
	if len(dec.FinalConfig.Middleboxes) != 1 || dec.FinalConfig.Middleboxes[0].Type != "tls-verify" {
		t.Fatalf("final middleboxes %+v", dec.FinalConfig.Middleboxes)
	}
}

func TestBestOfferPicksCheapest(t *testing.T) {
	cheap := &ProviderPolicy{Provider: "isp-cheap", DeployServer: "d1",
		Standards: []string{StandardMatchAction},
		Supported: map[string]int64{"tls-verify": 10, "pii-detect": 10, "transcoder": 10}}
	costly := fullProvider()
	n := NewNegotiator("dev1", testConfig(t), 10_000, StrategyStrict)
	dm := n.MakeDM()
	offers := []*Offer{costly.HandleDM(dm, 0), cheap.HandleDM(dm, 0)}
	best, dec, ok := n.BestOffer(offers, 0)
	if !ok || best.Provider != "isp-cheap" || dec.Cost != 30 {
		t.Fatalf("best %+v dec %+v", best, dec)
	}

	// Byte-identical terms: the cost tie breaks by provider name, so
	// the winner does not depend on the order the offers arrived in.
	zebra, apple := fullProvider(), fullProvider()
	zebra.Provider, apple.Provider = "isp-zebra", "isp-apple"
	za, ap := zebra.HandleDM(dm, 0), apple.HandleDM(dm, 0)
	for _, order := range [][]*Offer{{za, ap}, {ap, za}} {
		if best, _, ok := n.BestOffer(order, 0); !ok || best.Provider != "isp-apple" {
			t.Fatalf("order %s,%s: best %+v, want isp-apple (name tie-break)", order[0].Provider, order[1].Provider, best)
		}
	}
}

func TestBestOfferNoneAcceptable(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1, StrategyStrict)
	offers := []*Offer{fullProvider().HandleDM(n.MakeDM(), 0), nil}
	if _, _, ok := n.BestOffer(offers, 0); ok {
		t.Fatal("accepted an unacceptable offer")
	}
}

func TestBuildDeployRequest(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	offer := fullProvider().HandleDM(n.MakeDM(), 0)
	dec := n.Evaluate(offer, 0)
	req := n.BuildDeployRequest(offer, dec)
	if req.OfferID != offer.OfferID || req.DeviceID != "dev1" || req.Payment != 600 {
		t.Fatalf("request %+v", req)
	}
	reparsed, err := pvnc.Parse(req.PVNCSource)
	if err != nil {
		t.Fatalf("deploy request carries unparseable PVNC: %v", err)
	}
	if len(reparsed.Middleboxes) != 3 {
		t.Fatal("PVNC lost content")
	}
}

func TestOfferIDsUnique(t *testing.T) {
	p := fullProvider()
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	a := p.HandleDM(n.MakeDM(), 0)
	b := p.HandleDM(n.MakeDM(), 0)
	if a.OfferID == b.OfferID {
		t.Fatal("duplicate offer IDs")
	}
}

func TestCounterDMRenegotiation(t *testing.T) {
	partial := &ProviderPolicy{Provider: "isp-partial", DeployServer: "d",
		Standards: []string{StandardMatchAction},
		Supported: map[string]int64{"tls-verify": 100, "pii-detect": 100}}
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	dm1 := n.MakeDM()
	offer1 := partial.HandleDM(dm1, 0)

	// Strict rejects the partial offer; the device counters with the
	// supported subset instead.
	if dec := n.Evaluate(offer1, 0); dec.Accept {
		t.Fatal("strict accepted partial offer")
	}
	dm2, reduced, ok := n.CounterDM(offer1)
	if !ok {
		t.Fatal("counter-DM not produced")
	}
	if dm2.Seq != dm1.Seq+1 {
		t.Fatalf("sequence %d after %d", dm2.Seq, dm1.Seq)
	}
	if len(dm2.RequiredTypes) != 2 {
		t.Fatalf("counter requires %v", dm2.RequiredTypes)
	}
	if dm2.PVNCHash == dm1.PVNCHash {
		t.Fatal("counter quotes the original config")
	}
	if errs := reduced.Validate(); len(errs) != 0 {
		t.Fatalf("reduced config invalid: %v", errs)
	}

	// The provider's answer to the counter now covers everything, so a
	// strict negotiator over the REDUCED config accepts it.
	offer2 := partial.HandleDM(dm2, 0)
	n2 := NewNegotiator("dev1", reduced, 1000, StrategyStrict)
	dec := n2.Evaluate(offer2, 0)
	if !dec.Accept || dec.Cost != 200 {
		t.Fatalf("renegotiated decision %+v", dec)
	}
}

func TestCounterDMNothingSupported(t *testing.T) {
	n := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict)
	if _, _, ok := n.CounterDM(&Offer{}); ok {
		t.Fatal("counter-DM from empty offer")
	}
	if _, _, ok := n.CounterDM(nil); ok {
		t.Fatal("counter-DM from nil offer")
	}
}

// TestOfferFloodCapped: a DM flood inside one TTL fills the offer book
// to maxOffers and no further; each DM past it gets no offer and is
// counted. Once the flood's offers expire, DMs are served again.
func TestOfferFloodCapped(t *testing.T) {
	p := fullProvider()
	dm := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict).MakeDM()
	const over = 100
	for i := 0; i < maxOffers+over; i++ {
		offer := p.HandleDM(dm, time.Duration(i)*time.Microsecond)
		if (offer == nil) != (i >= maxOffers) {
			t.Fatalf("DM %d: offer %v; the book holds %d", i, offer != nil, len(p.issued))
		}
	}
	if len(p.issued) != maxOffers || p.refused != over {
		t.Fatalf("book %d, refused %d; want %d and %d", len(p.issued), p.refused, maxOffers, over)
	}
	if p.HandleDM(dm, 31*time.Second) == nil || len(p.issued) != 1 {
		t.Fatalf("after the flood expired: %d live offers, want the 1 just issued", len(p.issued))
	}
}

// TestOfferStatusAcrossPruning: pruning from the head of the issue-order
// book answers OfferStatus exactly as a full scan of every issued offer
// on each DM does — Valid while live, Expired until the next DM after
// its expiry, Unknown after that.
func TestOfferStatusAcrossPruning(t *testing.T) {
	p := fullProvider()
	p.OfferTTL = 10 * time.Second
	dm := NewNegotiator("dev1", testConfig(t), 1000, StrategyStrict).MakeDM()
	book := map[string]time.Duration{} // the full-scan model
	var ids []string
	rng := uint64(1)
	now := time.Duration(0)
	for step := 0; step < 400; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		now += time.Duration(rng>>40%4000) * time.Millisecond
		for id, exp := range book {
			if now >= exp {
				delete(book, id)
			}
		}
		offer := p.HandleDM(dm, now)
		book[offer.OfferID] = offer.ExpiresAt
		ids = append(ids, offer.OfferID)
		for _, at := range []time.Duration{now, now + 5*time.Second, now + 20*time.Second} {
			for _, id := range ids {
				want := OfferUnknown
				if exp, ok := book[id]; ok && at >= exp {
					want = OfferExpired
				} else if ok {
					want = OfferValid
				}
				if got := p.OfferStatus(id, at); got != want {
					t.Fatalf("step %d: OfferStatus(%s, %v) = %v, want %v", step, id, at, got, want)
				}
			}
		}
	}
}
