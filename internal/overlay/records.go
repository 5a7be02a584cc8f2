package overlay

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/pki"
	"pvn/internal/store"
)

// Record kinds.
const (
	// RecordOffer is a provider's offer advertisement, stored under a
	// service key (mutable: newer Seq supersedes).
	RecordOffer = "offer"
	// RecordModule is a PVN Store manifest, stored under its content
	// address (immutable: the key commits to the bytes).
	RecordModule = "module"
)

// Record errors, comparable with errors.Is.
var (
	ErrBadRecordSig    = errors.New("overlay: record signature invalid")
	ErrBadContentKey   = errors.New("overlay: record key does not match content address")
	ErrBadServiceKey   = errors.New("overlay: record key does not match its service")
	ErrBadRecordKind   = errors.New("overlay: unknown record kind")
	ErrRecordMalformed = errors.New("overlay: malformed record")
)

// Record is one signed artifact stored in the DHT. The signature is
// the publisher's, over the canonical signable bytes; replicas verify
// it before storing and fetchers re-verify after retrieval, so neither
// the network nor a malicious replica can alter a record undetected.
type Record struct {
	Kind string `json:"kind"`
	// Key is where the record lives in the ID space.
	Key ID `json:"key"`
	// Service names the rendezvous for offer records; Key must equal
	// ServiceKey(Service).
	Service string `json:"service,omitempty"`
	// Publisher is the human name of the signing identity (provider or
	// module developer).
	Publisher string `json:"publisher"`
	// PublicKey is the publisher's Ed25519 key; its fingerprint is the
	// publisher's overlay identity.
	PublicKey []byte `json:"public_key"`
	// Seq orders versions of a mutable record; replicas keep the
	// highest per (key, publisher).
	Seq uint64 `json:"seq"`
	// Body is the kind-specific payload (OfferAd or store.Module JSON).
	Body json.RawMessage `json:"body"`
	// Sig covers the canonical JSON of everything above.
	Sig []byte `json:"sig,omitempty"`
}

// signable returns the bytes Sig covers: the wire encoding of a copy
// with Sig cleared.
func (r *Record) signable() []byte {
	clone := *r
	clone.Sig = nil
	return clone.appendJSON(nil)
}

// Sign signs the record with the publisher's private key.
func (r *Record) Sign(priv ed25519.PrivateKey) {
	r.Sig = ed25519.Sign(priv, r.signable())
}

// wellFormed bounds-checks the record without any crypto — the cheap
// gate DecodeEnvelope applies to every wire message.
func (r *Record) wellFormed() error {
	if r.Kind != RecordOffer && r.Kind != RecordModule {
		return fmt.Errorf("%w: %q", ErrBadRecordKind, r.Kind)
	}
	if r.Publisher == "" || len(r.Publisher) > maxNameBytes || len(r.Service) > maxNameBytes {
		return fmt.Errorf("%w: publisher/service", ErrRecordMalformed)
	}
	if len(r.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: public key size %d", ErrRecordMalformed, len(r.PublicKey))
	}
	if len(r.Body) == 0 || len(r.Body) > maxBodyBytes {
		return fmt.Errorf("%w: body size %d", ErrRecordMalformed, len(r.Body))
	}
	if r.Key.IsZero() {
		return fmt.Errorf("%w: zero key", ErrRecordMalformed)
	}
	return nil
}

// Verify checks everything a replica (at store time) and a device (at
// fetch time) must re-check: structural bounds, the publisher
// signature over the canonical bytes, and the key binding — offer keys
// must hash from their service name, module keys must hash from the
// manifest's canonical bytes. A replica that swaps Body breaks the
// signature; one that recomputes a signature with its own key breaks
// the key binding the fetcher asked for (module) or the publisher
// identity the fetcher ranks by (offer).
func (r *Record) Verify() error {
	if err := r.wellFormed(); err != nil {
		return err
	}
	if !ed25519.Verify(ed25519.PublicKey(r.PublicKey), r.signable(), r.Sig) {
		return ErrBadRecordSig
	}
	switch r.Kind {
	case RecordOffer:
		if r.Service == "" || ServiceKey(r.Service) != r.Key {
			return ErrBadServiceKey
		}
	case RecordModule:
		m, err := store.DecodeModule(r.Body)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrRecordMalformed, err)
		}
		if ContentKey(m.CanonicalBytes()) != r.Key {
			return ErrBadContentKey
		}
	}
	return nil
}

// OfferAd is the body of an offer record: the static half of a
// provider's discovery answer, enough for a device that has never met
// the provider to synthesize and rank an Offer without any round trip
// to the provider itself.
type OfferAd struct {
	Provider     string   `json:"provider"`
	DeployServer string   `json:"deploy_server"`
	Standards    []string `json:"standards"`
	// Supported maps hosted middlebox types to per-module prices in
	// microcredits (0 = free), mirroring discovery.ProviderPolicy.
	Supported map[string]int64 `json:"supported"`
	// OfferTTL is how long synthesized offers stay valid. Zero means
	// 30s, matching ProviderPolicy.
	OfferTTL time.Duration `json:"offer_ttl,omitempty"`
}

// NewOfferRecord builds and signs a provider's advertisement under the
// given service name.
func NewOfferRecord(service string, ad OfferAd, kp pki.KeyPair, seq uint64) *Record {
	body, err := json.Marshal(ad)
	if err != nil {
		panic("overlay: marshal offer ad: " + err.Error())
	}
	r := &Record{
		Kind:      RecordOffer,
		Key:       ServiceKey(service),
		Service:   service,
		Publisher: ad.Provider,
		PublicKey: kp.Public,
		Seq:       seq,
		Body:      body,
	}
	r.Sign(kp.Private)
	return r
}

// DecodeOfferAd verifies the record and parses its advertisement.
func DecodeOfferAd(r *Record) (*OfferAd, error) { return decodeOfferAd(r, (*Record).Verify) }

// decodeOfferAd is DecodeOfferAd with the signature check supplied: a
// node passes its verifyRecord memo, outside callers the full Verify.
func decodeOfferAd(r *Record, verify func(*Record) error) (*OfferAd, error) {
	if r.Kind != RecordOffer {
		return nil, fmt.Errorf("%w: want %q, got %q", ErrBadRecordKind, RecordOffer, r.Kind)
	}
	if err := verify(r); err != nil {
		return nil, err
	}
	var ad OfferAd
	if err := json.Unmarshal(r.Body, &ad); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRecordMalformed, err)
	}
	if ad.Provider != r.Publisher {
		return nil, fmt.Errorf("%w: ad provider %q != record publisher %q", ErrRecordMalformed, ad.Provider, r.Publisher)
	}
	return &ad, nil
}

// ToOffer evaluates the advertisement against a DM exactly as a live
// provider would (discovery.ProviderPolicy.HandleDM): shared standard,
// supported subset, per-module prices and expiry. It returns nil when
// the ad cannot serve the request. The synthesized OfferID is
// deterministic in (publisher, ad seq, dm seq).
func (ad *OfferAd) ToOffer(rec *Record, dm *discovery.DM, now time.Duration) *discovery.Offer {
	shared := false
	for _, s := range ad.Standards {
		for _, d := range dm.Standards {
			if s == d {
				shared = true
			}
		}
	}
	if !shared {
		return nil
	}
	var supported []string
	prices := map[string]int64{}
	var total int64
	for _, t := range dm.RequiredTypes {
		price, ok := ad.Supported[t]
		if !ok {
			continue
		}
		supported = append(supported, t)
		prices[t] = price
		total += price
	}
	sort.Strings(supported)
	ttl := ad.OfferTTL
	if ttl == 0 {
		ttl = 30 * time.Second
	}
	return &discovery.Offer{
		OfferID:        fmt.Sprintf("%s-ad%d-dm%d", ad.Provider, rec.Seq, dm.Seq),
		Provider:       ad.Provider,
		DMSeq:          dm.Seq,
		DeployServer:   ad.DeployServer,
		Standards:      append([]string(nil), ad.Standards...),
		SupportedTypes: supported,
		PricePerModule: prices,
		TotalCost:      total,
		ExpiresAt:      now + ttl,
	}
}

// NewModuleRecord wraps a signed store manifest as a content-addressed
// DHT record. The record key is the hash of the module's canonical
// signable bytes; kp is the identity publishing to the overlay
// (usually the module's own publisher).
func NewModuleRecord(m *store.Module, kp pki.KeyPair, seq uint64) *Record {
	r := &Record{
		Kind:      RecordModule,
		Key:       ContentKey(m.CanonicalBytes()),
		Publisher: m.Publisher,
		PublicKey: kp.Public,
		Seq:       seq,
		Body:      m.Encode(),
	}
	r.Sign(kp.Private)
	return r
}

// ModuleKey returns the DHT key a manifest lives under — what a device
// asks the overlay for, and what it checks the fetched bytes against.
func ModuleKey(m *store.Module) ID { return ContentKey(m.CanonicalBytes()) }

// DecodeModuleRecord verifies the record end to end and parses the
// manifest: record signature, content-address binding, and manifest
// bounds. The caller still runs store.InstallRemote to enforce
// publisher trust and entitlement locally.
func DecodeModuleRecord(r *Record) (*store.Module, error) {
	if r.Kind != RecordModule {
		return nil, fmt.Errorf("%w: want %q, got %q", ErrBadRecordKind, RecordModule, r.Kind)
	}
	if err := r.Verify(); err != nil {
		return nil, err
	}
	return store.DecodeModule(r.Body)
}
