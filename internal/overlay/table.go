package overlay

import (
	"crypto/ed25519"
	"sort"
	"time"
)

// Peer is one known overlay participant.
type Peer struct {
	ID   ID
	Addr string
	Key  ed25519.PublicKey
}

// contact is a routing-table entry: a peer plus liveness bookkeeping.
type contact struct {
	peer     Peer
	lastSeen time.Duration
	fails    int
}

// maxContactFails is how many consecutive unanswered RPCs evict a
// contact. Two strikes: one timeout can be congestion, two in a row on
// the simulated clock means the node left.
const maxContactFails = 2

// Table is the Kademlia routing table: IDBits k-buckets of contacts
// ordered least-recently-seen first. It is single-threaded by design —
// the owning node drives it from netsim clock events only.
type Table struct {
	self ID
	k    int
	// buckets[i] holds contacts whose highest differing bit from self
	// is i; each is ordered least-recently-seen first.
	buckets [IDBits][]*contact
}

// NewTable builds an empty table for the given identity and bucket
// capacity k.
func NewTable(self ID, k int) *Table {
	if k <= 0 {
		k = 16
	}
	return &Table{self: self, k: k}
}

// Self returns the identity the table is centered on.
func (t *Table) Self() ID { return t.self }

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Update records that the peer was heard from at now. Known contacts
// move to the most-recently-seen end and reset their failure count;
// new contacts append while the bucket has room. When a bucket is full
// the least-recently-seen contact with strikes against it is replaced,
// otherwise the newcomer is dropped (classic Kademlia's bias toward
// long-lived peers, which resists ID-churn flooding). It reports
// whether the peer ended up in the table.
func (t *Table) Update(p Peer, now time.Duration) bool {
	bi := BucketIndex(t.self, p.ID)
	if bi < 0 {
		return false // never bucket self
	}
	b := t.buckets[bi]
	for i, c := range b {
		if c.peer.ID == p.ID {
			c.lastSeen = now
			c.fails = 0
			if len(p.Key) > 0 {
				c.peer = p
			}
			t.buckets[bi] = append(append(b[:i], b[i+1:]...), c)
			return true
		}
	}
	if len(b) < t.k {
		t.buckets[bi] = append(b, &contact{peer: p, lastSeen: now})
		return true
	}
	for i, c := range b {
		if c.fails > 0 {
			t.buckets[bi] = append(append(b[:i], b[i+1:]...), &contact{peer: p, lastSeen: now})
			return true
		}
	}
	return false
}

// Fail records an unanswered RPC to the peer, evicting it after
// maxContactFails consecutive strikes. It reports whether the contact
// was evicted.
func (t *Table) Fail(id ID) bool {
	bi := BucketIndex(t.self, id)
	if bi < 0 {
		return false
	}
	for i, c := range t.buckets[bi] {
		if c.peer.ID == id {
			c.fails++
			if c.fails >= maxContactFails {
				t.buckets[bi] = append(t.buckets[bi][:i], t.buckets[bi][i+1:]...)
				return true
			}
			return false
		}
	}
	return false
}

// Remove drops the peer immediately (e.g. on an explicit leave).
func (t *Table) Remove(id ID) {
	bi := BucketIndex(t.self, id)
	if bi < 0 {
		return
	}
	for i, c := range t.buckets[bi] {
		if c.peer.ID == id {
			t.buckets[bi] = append(t.buckets[bi][:i], t.buckets[bi][i+1:]...)
			return
		}
	}
}

// Closest returns up to n known peers ordered by XOR distance to
// target (ties cannot occur: IDs are unique points in the metric).
func (t *Table) Closest(target ID, n int) []Peer {
	var all []Peer
	for i := range t.buckets {
		for _, c := range t.buckets[i] {
			all = append(all, c.peer)
		}
	}
	sort.Slice(all, func(i, j int) bool { return DistanceLess(all[i].ID, all[j].ID, target) })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Len returns the total number of contacts.
func (t *Table) Len() int {
	n := 0
	for i := range t.buckets {
		n += len(t.buckets[i])
	}
	return n
}
