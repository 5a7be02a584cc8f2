// Package store holds the manifests of the "PVN Store" the paper
// proposes (§3.1): PVNC components — malware-detection modules,
// web-optimizing modules, tracker-blocking modules — that developers
// sign and publish into the discovery overlay. A device keeps a trust
// set of publisher keys and re-verifies every manifest it fetches
// (content address, then signature), so no replica can silently swap
// module contents.
package store

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Errors.
var (
	ErrUnknownPublisher = errors.New("store: unknown publisher")
	ErrBadSignature     = errors.New("store: module signature invalid")
	ErrNotFound         = errors.New("store: module not found")
	ErrNotEntitled      = errors.New("store: user not entitled to module")
	ErrAddressMismatch  = errors.New("store: manifest does not hash to the requested content address")
)

// Module is one installable PVNC component.
type Module struct {
	// Name is the store-wide identifier, e.g. "acme/tracker-radar".
	Name string `json:"name"`
	// Version is an opaque ordered string, e.g. "1.2.0".
	Version string `json:"version"`
	// Publisher names the signing developer.
	Publisher string `json:"publisher"`
	// Type is the middlebox registry type the module instantiates.
	Type string `json:"type"`
	// Config is the middlebox configuration the module ships (e.g. a
	// domain list for tracker-block, a script for user-script).
	Config map[string]string `json:"config,omitempty"`
	// Description is a human-readable summary.
	Description string `json:"description,omitempty"`
	// PriceMicro is the price in microcredits (0 = free).
	PriceMicro int64 `json:"price_micro"`

	// Signature covers the canonical JSON of everything above.
	Signature []byte `json:"signature,omitempty"`
}

// CanonicalBytes returns the module's canonical signable encoding: the
// deterministic JSON of everything except the signature. It is both
// what the publisher signs and what the distributed store hashes to
// content-address the manifest, so "the bytes the signature covers"
// and "the bytes the address commits to" cannot diverge.
func (m *Module) CanonicalBytes() []byte {
	clone := *m
	clone.Signature = nil
	b, err := json.Marshal(&clone)
	if err != nil {
		panic("store: marshal module: " + err.Error())
	}
	return b
}

// signable returns the bytes the signature covers.
func (m *Module) signable() []byte { return m.CanonicalBytes() }

// ContentAddress returns the module's content address: the hex SHA-256
// of its canonical signable bytes. A manifest fetched from an
// untrusted replica is accepted only if it hashes back to the address
// the fetcher asked for.
func (m *Module) ContentAddress() string {
	sum := sha256.Sum256(m.CanonicalBytes())
	return hex.EncodeToString(sum[:])
}

// Encode serializes the full signed manifest for distribution.
func (m *Module) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("store: marshal module: " + err.Error())
	}
	return b
}

// Module manifest bounds enforced at decode: a hostile replica cannot
// make a device hold an unbounded manifest.
const (
	maxModuleBytes    = 1 << 20
	maxModuleName     = 256
	maxConfigEntries  = 256
	maxConfigValueLen = 64 << 10
)

// DecodeModule parses a manifest produced by Encode, validating shape
// and bounds. It does NOT verify the signature — callers hold the
// publisher key and decide trust (VerifySignature, Store.InstallRemote).
func DecodeModule(data []byte) (*Module, error) {
	if len(data) > maxModuleBytes {
		return nil, fmt.Errorf("store: manifest %d bytes exceeds cap %d", len(data), maxModuleBytes)
	}
	var m Module
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: decode module: %w", err)
	}
	if m.Name == "" || len(m.Name) > maxModuleName {
		return nil, errors.New("store: module name missing or oversized")
	}
	if m.Publisher == "" || len(m.Publisher) > maxModuleName {
		return nil, errors.New("store: module publisher missing or oversized")
	}
	if len(m.Version) > maxModuleName || len(m.Type) > maxModuleName {
		return nil, errors.New("store: module version/type oversized")
	}
	if len(m.Config) > maxConfigEntries {
		return nil, fmt.Errorf("store: %d config entries exceeds cap %d", len(m.Config), maxConfigEntries)
	}
	for k, v := range m.Config {
		if len(k) > maxModuleName || len(v) > maxConfigValueLen {
			return nil, errors.New("store: config entry oversized")
		}
	}
	return &m, nil
}

// Sign signs the module with the publisher's key.
func (m *Module) Sign(priv ed25519.PrivateKey) {
	m.Signature = ed25519.Sign(priv, m.signable())
}

// VerifySignature checks the module against a publisher key.
func (m *Module) VerifySignature(pub ed25519.PublicKey) error {
	if !ed25519.Verify(pub, m.signable(), m.Signature) {
		return ErrBadSignature
	}
	return nil
}

// Store is a device's trust set for module manifests fetched from the
// overlay: the publishers whose signatures it accepts.
type Store struct {
	publishers map[string]ed25519.PublicKey
}

// New builds an empty trust set.
func New() *Store {
	return &Store{publishers: make(map[string]ed25519.PublicKey)}
}

// RegisterPublisher records a developer's signing key.
func (s *Store) RegisterPublisher(name string, pub ed25519.PublicKey) {
	s.publishers[name] = pub
}

// InstallRemote admits a manifest fetched from the discovery overlay
// (or any untrusted replica) for the user. The full trust chain is
// enforced locally: the publisher must be registered in this trust set,
// the manifest must hash to the content address the device asked the
// overlay for, the publisher signature must verify over the canonical
// bytes, and the user must be entitled to it. There is no purchase
// path, so only free modules are entitled.
func (s *Store) InstallRemote(user string, m *Module, wantAddress string) error {
	if m == nil {
		return ErrNotFound
	}
	pub, ok := s.publishers[m.Publisher]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPublisher, m.Publisher)
	}
	if got := m.ContentAddress(); got != wantAddress {
		return fmt.Errorf("%w: got %.16s…, want %.16s…", ErrAddressMismatch, got, wantAddress)
	}
	if err := m.VerifySignature(pub); err != nil {
		return err
	}
	if m.PriceMicro != 0 {
		return fmt.Errorf("%w: %s -> %s", ErrNotEntitled, user, m.Name)
	}
	return nil
}
