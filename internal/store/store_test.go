package store

import (
	"errors"
	"testing"

	"pvn/internal/pki"
)

// TestInstallReverifiesSignature: a replica that rewrites a module and
// serves it under the rewritten content's own address, or re-signs it
// with a key that is not the publisher's, is refused at the signature.
func TestInstallReverifiesSignature(t *testing.T) {
	acme, err := pki.GenerateKey(pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	evil, _ := pki.GenerateKey(pki.NewDeterministicRand(2))
	s := New()
	s.RegisterPublisher("acme", acme.Public)
	module := func() *Module {
		m := &Module{
			Name: "acme/radar", Version: "1.0", Publisher: "acme", Type: "tracker-block",
			Config: map[string]string{"domains": "ads.example,tracker.net"},
		}
		m.Sign(acme.Private)
		return m
	}

	m := module()
	if err := s.InstallRemote("alice", m, m.ContentAddress()); err != nil {
		t.Fatal(err)
	}
	m.Config["domains"] = "nothing"
	if err := s.InstallRemote("alice", m, m.ContentAddress()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered module installed: err=%v", err)
	}
	m = module()
	m.Sign(evil.Private)
	if err := s.InstallRemote("alice", m, m.ContentAddress()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("module signed by the wrong key installed: err=%v", err)
	}
}
