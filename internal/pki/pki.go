// Package pki implements a minimal certificate infrastructure: Ed25519
// key pairs, certificates with real signature chains, CAs, expiry, name
// matching (including wildcards) and revocation lists.
//
// It substitutes for the Web PKI in the paper's TLS experiments (§2.1,
// §4): what matters there is the *distinction* between valid, expired,
// self-signed, revoked and MITM certificates, and that verification is
// cryptographically real — an attacker who does not hold a trusted CA key
// cannot mint a chain that verifies. X.509/ASN.1 encoding is replaced by
// a JSON certificate body, which changes nothing about those properties.
package pki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// Fingerprint is the canonical identity digest of an Ed25519 public
// key: its SHA-256. The discovery overlay derives node IDs from it, and
// anything that needs to name a key without shipping it (trust files,
// reputation claims) uses the same digest so identities compare equal
// across subsystems.
func Fingerprint(pub ed25519.PublicKey) [sha256.Size]byte {
	return sha256.Sum256(pub)
}

// Errors returned by Verify, comparable with errors.Is.
var (
	ErrExpired      = errors.New("pki: certificate expired or not yet valid")
	ErrBadSignature = errors.New("pki: signature verification failed")
	ErrUntrusted    = errors.New("pki: chain does not terminate at a trusted root")
	ErrNameMismatch = errors.New("pki: certificate name does not match")
	ErrRevoked      = errors.New("pki: certificate revoked")
	ErrNotCA        = errors.New("pki: issuer certificate is not a CA")
	ErrEmptyChain   = errors.New("pki: empty certificate chain")
)

// Certificate binds a subject name to a public key, signed by an issuer.
// Validity is expressed in seconds on the simulation timeline.
type Certificate struct {
	Serial     uint64            `json:"serial"`
	Subject    string            `json:"subject"`
	Issuer     string            `json:"issuer"`
	ValidFrom  int64             `json:"valid_from"`
	ValidUntil int64             `json:"valid_until"`
	IsCA       bool              `json:"is_ca"`
	PublicKey  ed25519.PublicKey `json:"public_key"`
	Signature  []byte            `json:"signature"`
}

// tbs returns the to-be-signed bytes: the certificate with its signature
// cleared, in deterministic JSON.
func (c *Certificate) tbs() []byte {
	clone := *c
	clone.Signature = nil
	b, err := json.Marshal(&clone)
	if err != nil {
		// Marshal of this struct cannot fail; panicking would hide a
		// programming error less visibly than this.
		panic("pki: marshal TBS: " + err.Error())
	}
	return b
}

// Encode serializes the certificate for embedding in TLS Certificate
// messages.
func (c *Certificate) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic("pki: marshal certificate: " + err.Error())
	}
	return b
}

// DecodeCertificate parses a certificate blob produced by Encode.
func DecodeCertificate(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("pki: decode certificate: %w", err)
	}
	if len(c.PublicKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("pki: bad public key size %d", len(c.PublicKey))
	}
	return &c, nil
}

// EncodeChain serializes a chain leaf-first for the TLS layer.
func EncodeChain(chain []*Certificate) [][]byte {
	out := make([][]byte, len(chain))
	for i, c := range chain {
		out[i] = c.Encode()
	}
	return out
}

// DecodeChain parses the blobs from a TLS Certificate message.
func DecodeChain(blobs [][]byte) ([]*Certificate, error) {
	out := make([]*Certificate, len(blobs))
	for i, b := range blobs {
		c, err := DecodeCertificate(b)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// KeyPair is an Ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// GenerateKey creates a key pair from the given entropy source (pass a
// deterministic reader in tests and simulations).
func GenerateKey(rand io.Reader) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return KeyPair{}, fmt.Errorf("pki: generate key: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// serialCounter hands out unique serial numbers process-wide.
var serialCounter atomic.Uint64

// CA is a certificate authority: a (possibly self-signed) CA certificate
// plus its private key and revocation list.
type CA struct {
	Cert *Certificate
	key  ed25519.PrivateKey
	crl  map[uint64]bool
}

// NewRootCA creates a self-signed root valid over [validFrom, validUntil].
func NewRootCA(name string, kp KeyPair, validFrom, validUntil int64) *CA {
	c := &Certificate{
		Serial:     serialCounter.Add(1),
		Subject:    name,
		Issuer:     name,
		ValidFrom:  validFrom,
		ValidUntil: validUntil,
		IsCA:       true,
		PublicKey:  kp.Public,
	}
	c.Signature = ed25519.Sign(kp.Private, c.tbs())
	return &CA{Cert: c, key: kp.Private, crl: make(map[uint64]bool)}
}

// IssueOptions parameterize CA.Issue.
type IssueOptions struct {
	Subject    string
	PublicKey  ed25519.PublicKey
	ValidFrom  int64
	ValidUntil int64
	IsCA       bool
}

// Issue signs a new certificate for the given subject key.
func (ca *CA) Issue(opt IssueOptions) *Certificate {
	c := &Certificate{
		Serial:     serialCounter.Add(1),
		Subject:    opt.Subject,
		Issuer:     ca.Cert.Subject,
		ValidFrom:  opt.ValidFrom,
		ValidUntil: opt.ValidUntil,
		IsCA:       opt.IsCA,
		PublicKey:  opt.PublicKey,
	}
	c.Signature = ed25519.Sign(ca.key, c.tbs())
	return c
}

// Revoke adds a serial to this CA's revocation list.
func (ca *CA) Revoke(serial uint64) { ca.crl[serial] = true }

// SelfSign creates a certificate signed by its own key — the classic
// self-signed server cert that must fail verification against real roots.
func SelfSign(subject string, kp KeyPair, validFrom, validUntil int64) *Certificate {
	c := &Certificate{
		Serial:     serialCounter.Add(1),
		Subject:    subject,
		Issuer:     subject,
		ValidFrom:  validFrom,
		ValidUntil: validUntil,
		PublicKey:  kp.Public,
	}
	c.Signature = ed25519.Sign(kp.Private, c.tbs())
	return c
}

// TrustStore is a set of trusted root certificates plus revocation data.
type TrustStore struct {
	roots map[string]*Certificate // by subject
	// revoked aggregates CRLs the verifier has fetched.
	revoked map[uint64]bool
}

// NewTrustStore builds a store trusting the given roots.
func NewTrustStore(roots ...*Certificate) *TrustStore {
	ts := &TrustStore{roots: make(map[string]*Certificate), revoked: make(map[uint64]bool)}
	for _, r := range roots {
		ts.roots[r.Subject] = r
	}
	return ts
}

// AddCRL merges a CA's revocations into the store.
func (ts *TrustStore) AddCRL(ca *CA) {
	for serial := range ca.crl {
		ts.revoked[serial] = true
	}
}

// MarkRevoked records a single revoked serial (e.g. learned via OCSP-like
// checks).
func (ts *TrustStore) MarkRevoked(serial uint64) { ts.revoked[serial] = true }

// Verify checks a leaf-first chain: every signature, validity window and
// CA bit, termination at a trusted root, the leaf's name against
// wantName (supports single-label wildcards like *.example.com), and
// revocation. now is seconds on the simulation timeline.
func (ts *TrustStore) Verify(chain []*Certificate, wantName string, now int64) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	leaf := chain[0]
	if wantName != "" && !nameMatches(leaf.Subject, wantName) {
		return fmt.Errorf("%w: cert is for %q, want %q", ErrNameMismatch, leaf.Subject, wantName)
	}
	for i, c := range chain {
		if now < c.ValidFrom || now > c.ValidUntil {
			return fmt.Errorf("%w: %q valid [%d,%d], now %d", ErrExpired, c.Subject, c.ValidFrom, c.ValidUntil, now)
		}
		if ts.revoked[c.Serial] {
			return fmt.Errorf("%w: serial %d (%q)", ErrRevoked, c.Serial, c.Subject)
		}
		// Find the issuer: next element in the chain, or a trusted root.
		var issuer *Certificate
		if i+1 < len(chain) {
			issuer = chain[i+1]
			if !issuer.IsCA {
				return fmt.Errorf("%w: %q", ErrNotCA, issuer.Subject)
			}
		} else if root, ok := ts.roots[c.Issuer]; ok {
			issuer = root
			if issuer.Subject == c.Subject && string(issuer.PublicKey) == string(c.PublicKey) {
				// The chain's last element IS a trusted root
				// (self-signed); verify against itself below.
				issuer = c
			}
		} else {
			return fmt.Errorf("%w: issuer %q unknown", ErrUntrusted, c.Issuer)
		}
		if !ed25519.Verify(issuer.PublicKey, c.tbs(), c.Signature) {
			return fmt.Errorf("%w: %q signed by %q", ErrBadSignature, c.Subject, c.Issuer)
		}
		// If the issuer came from the trust store we are done walking.
		if i+1 >= len(chain) {
			// But the root we used must itself be trusted — it is, by
			// construction (looked up in ts.roots) — unless the chain
			// ended with a self-signed non-root.
			if _, ok := ts.roots[c.Issuer]; !ok {
				return fmt.Errorf("%w: issuer %q", ErrUntrusted, c.Issuer)
			}
		}
	}
	return nil
}

// nameMatches implements exact and single-label wildcard matching.
func nameMatches(pattern, name string) bool {
	pattern = strings.ToLower(pattern)
	name = strings.ToLower(name)
	if pattern == name {
		return true
	}
	if strings.HasPrefix(pattern, "*.") {
		suffix := pattern[1:] // ".example.com"
		if strings.HasSuffix(name, suffix) {
			head := strings.TrimSuffix(name, suffix)
			return head != "" && !strings.Contains(head, ".")
		}
	}
	return false
}
