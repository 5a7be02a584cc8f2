package pki

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// clone returns a copy of c that shares nothing with it.
func clone(c *Certificate) *Certificate {
	d := *c
	d.PublicKey = append([]byte(nil), c.PublicKey...)
	d.Signature = append([]byte(nil), c.Signature...)
	return &d
}

// TestSignatureMemoSkipsOnlyTheSignature: a chain verified once costs no
// signature check the next time, and nothing else is remembered. After
// the memo holds the good chain, every way of breaking it — revocation,
// expiry, a changed to-be-signed field, a changed signature, a root
// with the same subject and another key — must fail exactly as it fails
// on a store that never saw the chain.
func TestSignatureMemoSkipsOnlyTheSignature(t *testing.T) {
	p := newTestPKI(t)
	const name, now = "www.example.com", 500
	warm := func() *TrustStore {
		t.Helper()
		ts := NewTrustStore(p.root.Cert)
		if err := ts.Verify(p.leafChain, name, now); err != nil {
			t.Fatalf("good chain: %v", err)
		}
		if checks, _ := ts.SignatureStats(); checks != 2 {
			t.Fatalf("first Verify ran %d signature checks, want 2 (leaf, intermediate)", checks)
		}
		return ts
	}
	ts := warm()
	if err := ts.Verify(p.leafChain, name, now); err != nil {
		t.Fatalf("second Verify: %v", err)
	}
	if checks, _ := ts.SignatureStats(); checks != 2 {
		t.Fatalf("second Verify ran %d new signature checks, want 0", checks-2)
	}

	otherRootKey := mustKey(t, 7)
	impostor := NewRootCA(p.root.Cert.Subject, otherRootKey, 0, 10000)
	leaf, inter := p.leafChain[0], p.leafChain[1]
	cases := []struct {
		what  string
		chain []*Certificate
		now   int64
		setup func(*TrustStore)
		want  error
	}{
		{what: "revoked leaf", chain: p.leafChain, now: now, setup: func(ts *TrustStore) { ts.revoked[leaf.Serial] = true }, want: ErrRevoked},
		{what: "revoked intermediate", chain: p.leafChain, now: now, setup: func(ts *TrustStore) { ts.revoked[inter.Serial] = true }, want: ErrRevoked},
		{what: "past ValidUntil", chain: p.leafChain, now: leaf.ValidUntil + 1, want: ErrExpired},
		{what: "root with the same subject and another key", chain: p.leafChain, now: now,
			setup: func(ts *TrustStore) { ts.roots[impostor.Cert.Subject] = impostor.Cert }, want: ErrBadSignature},
	}
	flips := []struct {
		what string
		flip func(*Certificate)
	}{
		{"public key byte", func(c *Certificate) { c.PublicKey[0] ^= 1 }},
		{"serial", func(c *Certificate) { c.Serial ^= 1 }},
		{"validity start", func(c *Certificate) { c.ValidFrom ^= 1 }},
		{"issuer byte", func(c *Certificate) { c.Issuer = "U" + c.Issuer[1:] }},
		{"signature byte", func(c *Certificate) { c.Signature[0] ^= 1 }},
		{"last signature byte", func(c *Certificate) { c.Signature[len(c.Signature)-1] ^= 0x80 }},
	}
	for _, f := range flips {
		for i := range p.leafChain {
			chain := []*Certificate{clone(leaf), clone(inter)}
			f.flip(chain[i])
			want := ErrBadSignature
			if f.what == "issuer byte" && i == 1 {
				want = ErrUntrusted // the intermediate now names an unknown root
			}
			cases = append(cases, struct {
				what  string
				chain []*Certificate
				now   int64
				setup func(*TrustStore)
				want  error
			}{what: fmt.Sprintf("%s of cert %d", f.what, i), chain: chain, now: now, want: want})
		}
	}
	for _, c := range cases {
		memo, fresh := warm(), NewTrustStore(p.root.Cert)
		if c.setup != nil {
			c.setup(memo)
			c.setup(fresh)
		}
		wantName := name
		if c.chain[0].Subject != name {
			wantName = ""
		}
		got, want := memo.Verify(c.chain, wantName, c.now), fresh.Verify(c.chain, wantName, c.now)
		if !errors.Is(want, c.want) {
			t.Fatalf("%s: a fresh store says %v, want %v", c.what, want, c.want)
		}
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: store with the good chain memoized says %v, a fresh store %v", c.what, got, want)
		}
	}
}

// TestSignatureMemoBound: the memo holds maxVerifiedSigs signatures,
// empties whole when one more arrives, and counts the flush; a flushed
// signature costs one fresh check.
func TestSignatureMemoBound(t *testing.T) {
	p := newTestPKI(t)
	ts := NewTrustStore(p.root.Cert)
	k := mustKey(t, 11)
	leaves := make([]*Certificate, maxVerifiedSigs+1)
	for i := range leaves {
		leaves[i] = p.root.Issue(IssueOptions{Subject: fmt.Sprintf("h%d.example.com", i), PublicKey: k.Public, ValidUntil: 10000})
	}
	for _, leaf := range leaves[:maxVerifiedSigs] {
		if err := ts.Verify([]*Certificate{leaf}, "", 50); err != nil {
			t.Fatal(err)
		}
	}
	if checks, flushes := ts.SignatureStats(); checks != maxVerifiedSigs || flushes != 0 || len(ts.verified) != maxVerifiedSigs {
		t.Fatalf("at the bound: %d checks, %d flushes, %d memoized", checks, flushes, len(ts.verified))
	}
	if err := ts.Verify(leaves[maxVerifiedSigs:], "", 50); err != nil {
		t.Fatal(err)
	}
	if checks, flushes := ts.SignatureStats(); checks != maxVerifiedSigs+1 || flushes != 1 || len(ts.verified) != 1 {
		t.Fatalf("past the bound: %d checks, %d flushes, %d memoized; want %d, 1, 1", checks, flushes, len(ts.verified), maxVerifiedSigs+1)
	}
	if err := ts.Verify(leaves[:1], "", 50); err != nil {
		t.Fatal(err)
	}
	if checks, _ := ts.SignatureStats(); checks != maxVerifiedSigs+2 {
		t.Fatalf("a flushed signature ran %d checks, want 1", checks-maxVerifiedSigs-1)
	}
}

// TestSignatureMemoFailuresNotKept: a bad signature is checked on every
// arrival, never remembered.
func TestSignatureMemoFailuresNotKept(t *testing.T) {
	p := newTestPKI(t)
	bad := []*Certificate{clone(p.leafChain[0]), p.leafChain[1]}
	bad[0].Signature[3] ^= 1
	for i := int64(1); i <= 3; i++ {
		if err := p.store.Verify(bad, "", 500); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("bad signature: %v", err)
		}
		if checks, _ := p.store.SignatureStats(); checks != i {
			t.Fatalf("arrival %d: %d signature checks, want %d", i, checks, i)
		}
	}
}

// TestSignatureMemoConcurrent: one store verified from many goroutines,
// as tls-verify boxes of different owners share it. Run with -race.
func TestSignatureMemoConcurrent(t *testing.T) {
	p := newTestPKI(t)
	bad := []*Certificate{clone(p.leafChain[0]), p.leafChain[1]}
	bad[0].Signature[0] ^= 1
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := p.store.Verify(p.leafChain, "www.example.com", 500); err != nil {
					t.Errorf("good chain: %v", err)
					return
				}
				if err := p.store.Verify(bad, "", 500); !errors.Is(err, ErrBadSignature) {
					t.Errorf("bad chain: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The good chain's two signatures are checked at most once per
	// goroutine that raced to them; the bad one on every arrival.
	if checks, _ := p.store.SignatureStats(); checks < 80 || checks > 80+2*4 {
		t.Errorf("%d signature checks, want the 80 bad arrivals plus at most 8 good", checks)
	}
}
