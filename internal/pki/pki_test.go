package pki

import (
	"errors"
	"testing"
)

// testPKI builds a root CA, an intermediate, and a leaf for
// www.example.com valid over [100, 1000].
type testPKI struct {
	root         *CA
	intermediate *CA
	leafChain    []*Certificate
	leafKey      KeyPair
	store        *TrustStore
}

func newTestPKI(t *testing.T) *testPKI {
	t.Helper()
	rootKey := mustKey(t, 1)
	interKey := mustKey(t, 2)
	leafKey := mustKey(t, 3)

	root := NewRootCA("Test Root CA", rootKey, 0, 10000)
	interCert := root.Issue(IssueOptions{Subject: "Test Intermediate", PublicKey: interKey.Public, ValidFrom: 0, ValidUntil: 10000, IsCA: true})
	inter := &CA{Cert: interCert, key: interKey.Private, crl: map[uint64]bool{}}
	leaf := inter.Issue(IssueOptions{Subject: "www.example.com", PublicKey: leafKey.Public, ValidFrom: 100, ValidUntil: 1000})

	return &testPKI{
		root:         root,
		intermediate: inter,
		leafChain:    []*Certificate{leaf, interCert},
		leafKey:      leafKey,
		store:        NewTrustStore(root.Cert),
	}
}

func mustKey(t *testing.T, seed uint64) KeyPair {
	t.Helper()
	kp, err := GenerateKey(NewDeterministicRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestVerifyValidChain(t *testing.T) {
	p := newTestPKI(t)
	if err := p.store.Verify(p.leafChain, "www.example.com", 500); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestVerifyDirectRootIssued(t *testing.T) {
	p := newTestPKI(t)
	k := mustKey(t, 9)
	leaf := p.root.Issue(IssueOptions{Subject: "direct.example.com", PublicKey: k.Public, ValidFrom: 0, ValidUntil: 10000})
	if err := p.store.Verify([]*Certificate{leaf}, "direct.example.com", 50); err != nil {
		t.Fatalf("root-issued leaf rejected: %v", err)
	}
}

func TestVerifyExpired(t *testing.T) {
	p := newTestPKI(t)
	for _, now := range []int64{50, 1500} { // before and after validity
		err := p.store.Verify(p.leafChain, "www.example.com", now)
		if !errors.Is(err, ErrExpired) {
			t.Fatalf("now=%d: err=%v, want ErrExpired", now, err)
		}
	}
}

func TestVerifyNameMismatch(t *testing.T) {
	p := newTestPKI(t)
	err := p.store.Verify(p.leafChain, "evil.example.com", 500)
	if !errors.Is(err, ErrNameMismatch) {
		t.Fatalf("err=%v, want ErrNameMismatch", err)
	}
}

func TestVerifyWildcard(t *testing.T) {
	p := newTestPKI(t)
	k := mustKey(t, 4)
	wild := p.root.Issue(IssueOptions{Subject: "*.cdn.example.com", PublicKey: k.Public, ValidFrom: 0, ValidUntil: 10000})
	chain := []*Certificate{wild}
	if err := p.store.Verify(chain, "a.cdn.example.com", 500); err != nil {
		t.Fatalf("wildcard rejected matching name: %v", err)
	}
	if err := p.store.Verify(chain, "a.b.cdn.example.com", 500); !errors.Is(err, ErrNameMismatch) {
		t.Fatalf("wildcard matched two labels: %v", err)
	}
	if err := p.store.Verify(chain, "cdn.example.com", 500); !errors.Is(err, ErrNameMismatch) {
		t.Fatalf("wildcard matched bare domain: %v", err)
	}
}

func TestVerifySelfSignedRejected(t *testing.T) {
	p := newTestPKI(t)
	k := mustKey(t, 5)
	ss := SelfSign("www.example.com", k, 0, 10000)
	err := p.store.Verify([]*Certificate{ss}, "www.example.com", 500)
	if !errors.Is(err, ErrUntrusted) {
		t.Fatalf("err=%v, want ErrUntrusted", err)
	}
}

func TestVerifyMITMChainRejected(t *testing.T) {
	// An attacker with their own CA mints a cert for the victim domain.
	p := newTestPKI(t)
	evilCAKey := mustKey(t, 6)
	evilCA := NewRootCA("Evil CA", evilCAKey, 0, 10000)
	k := mustKey(t, 7)
	mitm := evilCA.Issue(IssueOptions{Subject: "www.example.com", PublicKey: k.Public, ValidFrom: 0, ValidUntil: 10000})
	err := p.store.Verify([]*Certificate{mitm, evilCA.Cert}, "www.example.com", 500)
	if !errors.Is(err, ErrUntrusted) {
		t.Fatalf("err=%v, want ErrUntrusted (evil root not in store)", err)
	}
}

func TestVerifyTamperedCertificate(t *testing.T) {
	p := newTestPKI(t)
	tampered := *p.leafChain[0]
	tampered.Subject = "attacker.example.com"
	err := p.store.Verify([]*Certificate{&tampered, p.leafChain[1]}, "attacker.example.com", 500)
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err=%v, want ErrBadSignature", err)
	}
}

func TestVerifyNonCAIntermediateRejected(t *testing.T) {
	p := newTestPKI(t)
	// A leaf (non-CA) cannot issue.
	rogueKey := mustKey(t, 8)
	leafCert := p.leafChain[0]
	rogueCA := &CA{Cert: leafCert, key: p.leafKey.Private, crl: map[uint64]bool{}}
	rogue := rogueCA.Issue(IssueOptions{Subject: "forged.example.com", PublicKey: rogueKey.Public, ValidFrom: 100, ValidUntil: 1000})
	chain := []*Certificate{rogue, leafCert, p.leafChain[1]}
	err := p.store.Verify(chain, "forged.example.com", 500)
	if !errors.Is(err, ErrNotCA) {
		t.Fatalf("err=%v, want ErrNotCA", err)
	}
}

func TestVerifyRevoked(t *testing.T) {
	p := newTestPKI(t)
	p.intermediate.Revoke(p.leafChain[0].Serial)
	p.store.AddCRL(p.intermediate)
	err := p.store.Verify(p.leafChain, "www.example.com", 500)
	if !errors.Is(err, ErrRevoked) {
		t.Fatalf("err=%v, want ErrRevoked", err)
	}
}

func TestVerifyEmptyChain(t *testing.T) {
	p := newTestPKI(t)
	if err := p.store.Verify(nil, "x", 0); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("err=%v, want ErrEmptyChain", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := newTestPKI(t)
	blobs := EncodeChain(p.leafChain)
	chain, err := DecodeChain(blobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.store.Verify(chain, "www.example.com", 500); err != nil {
		t.Fatalf("decoded chain rejected: %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeCertificate([]byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeCertificate([]byte(`{"public_key":"aGk="}`)); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestDeterministicRand(t *testing.T) {
	a := mustKey(t, 42)
	b := mustKey(t, 42)
	if string(a.Public) != string(b.Public) {
		t.Fatal("same-seed keys differ")
	}
	c := mustKey(t, 43)
	if string(a.Public) == string(c.Public) {
		t.Fatal("different-seed keys identical")
	}
}

func TestSerialUniqueness(t *testing.T) {
	p := newTestPKI(t)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		k := mustKey(t, uint64(100+i))
		c := p.root.Issue(IssueOptions{Subject: "s", PublicKey: k.Public, ValidUntil: 1})
		if seen[c.Serial] {
			t.Fatal("duplicate serial issued")
		}
		seen[c.Serial] = true
	}
}
