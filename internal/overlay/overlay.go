// Package overlay implements the decentralized coordination layer the
// paper's PVN Store and provider discovery assume away (§3.1): a
// Kademlia-style distributed hash table running over netsim, with node
// identity derived from internal/pki Ed25519 keys, XOR-distance
// routing, iterative lookups, and k-bucket maintenance under churn.
//
// Three things ride on the DHT:
//
//   - Provider discovery: providers PUT signed offer advertisements
//     under a service key; roaming devices GET, verify and rank them —
//     no coordination server to fail or be subpoenaed.
//   - A distributed PVN Store: store.Module manifests become
//     content-addressed records (the key is the hash of the module's
//     canonical signable bytes), published and fetched through the
//     DHT, with publisher-signature re-verification at fetch so a
//     malicious replica cannot swap contents.
//   - Reputation gossip: auditor violation/bypass tallies fold into
//     per-provider claims that propagate by anti-entropy exchange
//     piggybacked on every DHT message, so a device can rank a
//     never-seen provider before attaching.
//
// Everything runs on the injected netsim clock and seeded RNGs: given
// one seed, a 256-node overlay produces bit-identical traffic, tables
// and experiment rows on every run.
package overlay

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"

	"pvn/internal/pki"
)

// IDBytes is the width of the overlay's identifier space: 256-bit IDs,
// the SHA-256 output size.
const IDBytes = 32

// IDBits is the identifier width in bits (the number of k-buckets).
const IDBits = IDBytes * 8

// ID is a point in the overlay's 256-bit XOR metric space. Node IDs are
// fingerprints of Ed25519 public keys; content keys are hashes of
// canonical record bytes; service keys are hashes of service names.
type ID [IDBytes]byte

// IDFromPublicKey derives a node's overlay identity from its Ed25519
// public key. The binding is what makes identity unforgeable: a node
// cannot claim an ID without holding the key that hashes to it.
func IDFromPublicKey(pub ed25519.PublicKey) ID {
	return ID(pki.Fingerprint(pub))
}

// ContentKey addresses immutable bytes: the SHA-256 of their canonical
// encoding. Module manifests live at their ContentKey, which is what
// lets a fetching device detect a replica that swapped the body.
func ContentKey(data []byte) ID {
	return ID(sha256.Sum256(data))
}

// ServiceKey addresses a mutable rendezvous point, e.g. the well-known
// key all PVN providers advertise under. The "svc:" prefix keeps the
// service namespace disjoint from content addresses.
func ServiceKey(name string) ID {
	return ID(sha256.Sum256([]byte("svc:" + name)))
}

// String renders the full hex ID.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is all zeros (the unset value).
func (id ID) IsZero() bool { return id == ID{} }

// MarshalText encodes the ID as hex. encoding/json quotes text
// marshalers itself, so IDs appear on the wire as hex strings without
// the re-validation pass it runs over a MarshalJSON result.
func (id ID) MarshalText() ([]byte, error) {
	b := make([]byte, 2*IDBytes)
	hex.Encode(b, id[:])
	return b, nil
}

// distanceCmp orders IDs by XOR distance to target, the total order
// every routing and storage decision uses: negative when a is closer
// than b, zero when a == b, positive otherwise.
func distanceCmp(a, b, target ID) int {
	for i := 0; i < IDBytes; i++ {
		da, db := a[i]^target[i], b[i]^target[i]
		if da != db {
			return int(da) - int(db)
		}
	}
	return 0
}

// BucketIndex returns the k-bucket an ID belongs to relative to self:
// IDBits-1 minus the length of the shared prefix, i.e. the bit position
// of the highest differing bit. Equal IDs return -1 (a node never
// buckets itself).
func BucketIndex(self, other ID) int {
	for i := 0; i < IDBytes; i++ {
		x := self[i] ^ other[i]
		if x == 0 {
			continue
		}
		bit := 7
		for x>>uint(bit) == 0 {
			bit--
		}
		return (IDBytes-1-i)*8 + bit
	}
	return -1
}
