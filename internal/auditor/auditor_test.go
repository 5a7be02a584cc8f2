package auditor

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/pki"
)

// attFixture: vendor root certifies the provider's attestation key.
type attFixture struct {
	vendors  *pki.TrustStore
	attester *Attester
	evilAtt  *Attester
}

func newAttFixture(t *testing.T) *attFixture {
	t.Helper()
	vendorKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	vendor := pki.NewRootCA("Platform Vendor", vendorKey, 0, 1_000_000)
	provKey, _ := pki.GenerateKey(pki.NewDeterministicRand(2))
	provCert := vendor.Issue(pki.IssueOptions{Subject: "isp1-platform", PublicKey: provKey.Public, ValidFrom: 0, ValidUntil: 1_000_000})

	// Evil provider invents its own vendor.
	evilVendorKey, _ := pki.GenerateKey(pki.NewDeterministicRand(3))
	evilVendor := pki.NewRootCA("Evil Vendor", evilVendorKey, 0, 1_000_000)
	evilKey, _ := pki.GenerateKey(pki.NewDeterministicRand(4))
	evilCert := evilVendor.Issue(pki.IssueOptions{Subject: "evil-platform", PublicKey: evilKey.Public, ValidFrom: 0, ValidUntil: 1_000_000})

	return &attFixture{
		vendors:  pki.NewTrustStore(vendor.Cert),
		attester: NewAttester(provKey, []*pki.Certificate{provCert}),
		evilAtt:  NewAttester(evilKey, []*pki.Certificate{evilCert, evilVendor.Cert}),
	}
}

func TestAttestationHappyPath(t *testing.T) {
	f := newAttFixture(t)
	st := Statement{Provider: "isp1", DeviceID: "dev1", PVNCHash: "abc123", IssuedAt: 10, Nonce: 42,
		Detail: json.RawMessage(`{"chains":["alice/secure"]}`)}
	att, err := f.attester.Attest(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttestation(att, f.vendors, "abc123", 42, 10); err != nil {
		t.Fatalf("valid attestation rejected: %v", err)
	}
}

// TestVerifyAttestationChecksKeyCertOnce: the vendor's signature on the
// provider's key certificate is checked on the first verification only;
// every attestation's own signature and nonce are still checked.
func TestVerifyAttestationChecksKeyCertOnce(t *testing.T) {
	f := newAttFixture(t)
	for nonce, want := range []int64{1, 0, 0} {
		att, err := f.attester.Attest(Statement{Provider: "isp1", DeviceID: "d", PVNCHash: "h", Nonce: uint64(nonce)})
		if err != nil {
			t.Fatal(err)
		}
		before, _ := f.vendors.SignatureStats()
		if err := VerifyAttestation(att, f.vendors, "h", uint64(nonce), 10); err != nil {
			t.Fatalf("attestation %d: %v", nonce, err)
		}
		if checks, _ := f.vendors.SignatureStats(); checks-before != want {
			t.Fatalf("attestation %d ran %d certificate-signature checks, want %d", nonce, checks-before, want)
		}
		att.Signature[0] ^= 1
		if err := VerifyAttestation(att, f.vendors, "h", uint64(nonce), 10); !errors.Is(err, ErrBadAttestation) {
			t.Fatalf("attestation %d with a flipped signature: %v", nonce, err)
		}
		att.Signature[0] ^= 1
		if err := VerifyAttestation(att, f.vendors, "h", uint64(nonce)+1, 10); !errors.Is(err, ErrBadAttestation) {
			t.Fatalf("attestation %d replayed: %v", nonce, err)
		}
	}
}

func TestAttestationWrongHash(t *testing.T) {
	f := newAttFixture(t)
	att, _ := f.attester.Attest(Statement{PVNCHash: "deployed-other-config", Nonce: 1})
	err := VerifyAttestation(att, f.vendors, "what-device-asked-for", 1, 0)
	if !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("err=%v, want ErrHashMismatch", err)
	}
}

func TestAttestationReplayedNonce(t *testing.T) {
	f := newAttFixture(t)
	att, _ := f.attester.Attest(Statement{PVNCHash: "h", Nonce: 1})
	if err := VerifyAttestation(att, f.vendors, "h", 2, 0); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("err=%v, want ErrBadAttestation (nonce)", err)
	}
}

func TestAttestationTamperedStatement(t *testing.T) {
	f := newAttFixture(t)
	att, _ := f.attester.Attest(Statement{PVNCHash: "h", Nonce: 1, Provider: "isp1"})
	att.Statement.Provider = "someone-else"
	if err := VerifyAttestation(att, f.vendors, "h", 1, 0); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("err=%v, want ErrBadAttestation", err)
	}
}

func TestAttestationUntrustedVendor(t *testing.T) {
	f := newAttFixture(t)
	att, _ := f.evilAtt.Attest(Statement{PVNCHash: "h", Nonce: 1})
	if err := VerifyAttestation(att, f.vendors, "h", 1, 0); !errors.Is(err, ErrUntrustedSigner) {
		t.Fatalf("err=%v, want ErrUntrustedSigner", err)
	}
}

func TestAttestationEmptyChain(t *testing.T) {
	f := newAttFixture(t)
	att, _ := f.attester.Attest(Statement{PVNCHash: "h", Nonce: 1})
	att.KeyCert = nil
	if err := VerifyAttestation(att, f.vendors, "h", 1, 0); !errors.Is(err, ErrUntrustedSigner) {
		t.Fatalf("err=%v", err)
	}
}

// --- measurements ---

// samples draws n throughput values around mean with given spread.
func samples(rng *netsim.RNG, n int, mean, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Normal(mean, spread)
	}
	return out
}

func TestDifferentiationDetectsShaping(t *testing.T) {
	rng := netsim.NewRNG(1)
	control := samples(rng, 40, 10e6, 1e6)
	shaped := samples(rng, 40, 1.5e6, 0.3e6) // Binge On-style 1.5 Mbps
	res := DifferentiationTest(control, shaped)
	if !res.Detected {
		t.Fatalf("shaping not detected: %+v", res)
	}
	if res.Ratio < 4 {
		t.Fatalf("ratio %v too small", res.Ratio)
	}
}

func TestDifferentiationNoFalsePositive(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := netsim.NewRNG(seed)
		a := samples(rng, 40, 10e6, 2e6)
		b := samples(rng, 40, 10e6, 2e6)
		if res := DifferentiationTest(a, b); res.Detected {
			t.Fatalf("seed %d: identical distributions flagged: %+v", seed, res)
		}
	}
}

func TestDifferentiationSmallDegradationNotFlagged(t *testing.T) {
	// 10% worse is statistically visible but below practical
	// significance; must not flag.
	rng := netsim.NewRNG(5)
	a := samples(rng, 100, 10e6, 0.1e6)
	b := samples(rng, 100, 9.1e6, 0.1e6)
	if res := DifferentiationTest(a, b); res.Detected {
		t.Fatalf("10%% degradation flagged: %+v", res)
	}
}

func TestDifferentiationEmptySamples(t *testing.T) {
	if res := DifferentiationTest(nil, nil); res.Detected {
		t.Fatal("empty samples flagged")
	}
}

func TestContentModificationCheck(t *testing.T) {
	sent := []byte("canonical probe payload 12345")
	if err := ContentModificationCheck(sent, sent); err != nil {
		t.Fatalf("identical payload flagged: %v", err)
	}
	if err := ContentModificationCheck(sent, sent[:10]); err == nil {
		t.Fatal("truncation missed")
	}
	if err := ContentModificationCheck(sent, append(append([]byte{}, sent...), []byte("<ad>")...)); err == nil {
		t.Fatal("injection missed")
	}
	mod := append([]byte{}, sent...)
	mod[5] ^= 0xff
	if err := ContentModificationCheck(sent, mod); err == nil {
		t.Fatal("rewrite missed")
	}
}

func TestPathInflationCheck(t *testing.T) {
	if bad, _ := PathInflationCheck(50*time.Millisecond, 60*time.Millisecond, 1.5); bad {
		t.Fatal("1.2x flagged at 1.5 threshold")
	}
	bad, ratio := PathInflationCheck(50*time.Millisecond, 200*time.Millisecond, 1.5)
	if !bad || ratio != 4 {
		t.Fatalf("4x inflation: bad=%v ratio=%v", bad, ratio)
	}
	if bad, _ := PathInflationCheck(0, time.Second, 1.5); bad {
		t.Fatal("zero baseline flagged")
	}
}

func TestPrivacyExposureCheck(t *testing.T) {
	if !PrivacyExposureCheck("canary-9f3a", []byte("log: got canary-9f3a from tracker")) {
		t.Fatal("exposed canary missed")
	}
	if PrivacyExposureCheck("canary-9f3a", []byte("clean log")) {
		t.Fatal("false exposure")
	}
	if PrivacyExposureCheck("", []byte("anything")) {
		t.Fatal("empty canary matched")
	}
}

// --- ledger ---

func TestLedgerReputationAndBlacklist(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 10; i++ {
		l.RecordAudit("honest")
		l.RecordAudit("cheater")
	}
	for i := 0; i < 6; i++ {
		l.RecordViolation(Violation{Kind: ViolationDifferentiation, Provider: "cheater", Score: 1})
	}
	if r := l.Reputation("honest"); r != 1 {
		t.Fatalf("honest reputation %v", r)
	}
	if r := l.Reputation("cheater"); r != 0.4 {
		t.Fatalf("cheater reputation %v", r)
	}
	if l.Blacklisted("honest") {
		t.Fatal("honest blacklisted")
	}
	if !l.Blacklisted("cheater") {
		t.Fatal("cheater not blacklisted at 60% violation rate")
	}
	if r := l.Reputation("never-seen"); r != 1 {
		t.Fatalf("unseen provider reputation %v", r)
	}
}

func TestLedgerRanked(t *testing.T) {
	l := NewLedger()
	for _, p := range []string{"a", "b", "c"} {
		l.RecordAudit(p)
		l.RecordAudit(p)
	}
	l.RecordViolation(Violation{Provider: "b"})
	l.RecordViolation(Violation{Provider: "c"})
	l.RecordViolation(Violation{Provider: "c"})
	got := l.Ranked()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked %v, want %v", got, want)
		}
	}
}

func TestDisputeRequiresEvidence(t *testing.T) {
	l := NewLedger()
	if d := l.OpenDispute("clean-isp", "dev1", 100, 0); d != nil {
		t.Fatal("evidence-free dispute opened")
	}
	l.RecordViolation(Violation{Kind: ViolationContentMod, Provider: "bad-isp", Detail: "injected ad"})
	d := l.OpenDispute("bad-isp", "dev1", 100, time.Second)
	if d == nil || len(d.Evidence) != 1 || d.ClaimMicro != 100 {
		t.Fatalf("dispute %+v", d)
	}
}

func TestRankSumZSymmetry(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	zAB := rankSumZ(a, b)
	zBA := rankSumZ(b, a)
	if zAB >= 0 {
		t.Fatalf("control all-lower should give negative z, got %v", zAB)
	}
	if zAB != -zBA {
		t.Fatalf("z not antisymmetric: %v vs %v", zAB, zBA)
	}
}

func TestRankSumTiesHandled(t *testing.T) {
	a := []float64{5, 5, 5, 5}
	b := []float64{5, 5, 5, 5}
	if z := rankSumZ(a, b); z != 0 {
		t.Fatalf("all-ties z = %v, want 0", z)
	}
}

// TestLedgerRedirections: redirection decisions are evidence, recorded
// under the provider the traffic moved away from, without touching
// reputations.
func TestLedgerRedirections(t *testing.T) {
	l := NewLedger()
	l.RecordRedirection(Redirection{
		Provider: "isp1", From: "in-network:isp1", To: "in-network:isp2",
		Reason: "roam", At: 5 * time.Millisecond,
	})
	l.RecordRedirection(Redirection{
		Provider: "cloud", From: "tunnel:cloud", To: "tunnel:home",
		Reason: "endpoint down", At: 9 * time.Millisecond,
	})
	if got := l.Redirections("isp1"); len(got) != 1 || got[0].To != "in-network:isp2" {
		t.Fatalf("isp1 redirections %+v", got)
	}
	if got := l.Redirections("cloud"); len(got) != 1 || got[0].Reason != "endpoint down" {
		t.Fatalf("cloud redirections %+v", got)
	}
	if l.Redirections("ghost") != nil {
		t.Fatal("phantom redirections")
	}
	// Evidence, not violations: reputation unaffected.
	if l.Reputation("isp1") != 1 {
		t.Fatalf("reputation moved: %v", l.Reputation("isp1"))
	}
}
