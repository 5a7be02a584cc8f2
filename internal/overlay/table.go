package overlay

import (
	"crypto/ed25519"
	"slices"
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

// Table is the Kademlia routing table: k-buckets of contacts ordered
// least-recently-seen first. It is single-threaded by design — the
// owning node drives it from netsim clock events only.
type Table struct {
	self ID
	k    int
	// buckets[j] is k-bucket IDBits-1-j, the contacts whose highest
	// differing bit from self is IDBits-1-j. A bucket one level deeper
	// holds half as many IDs, so only the top few fill: the slice ends
	// at the deepest bucket in use (see bucket and setBucket).
	buckets [][]*contact
}

// NewTable builds an empty table for the given identity and bucket
// capacity k.
func NewTable(self ID, k int) *Table {
	if k <= 0 {
		k = 16
	}
	return &Table{self: self, k: k}
}

// bucket returns k-bucket i, empty when it lies deeper than any in use.
func (t *Table) bucket(i int) []*contact {
	if j := IDBits - 1 - i; j < len(t.buckets) {
		return t.buckets[j]
	}
	return nil
}

// setBucket replaces k-bucket i, growing the table down to it or
// trimming empty buckets off the deep end.
func (t *Table) setBucket(i int, b []*contact) {
	j := IDBits - 1 - i
	if j >= len(t.buckets) {
		t.buckets = append(t.buckets, make([][]*contact, j+1-len(t.buckets))...)
	}
	t.buckets[j] = b
	for len(t.buckets) > 0 && len(t.buckets[len(t.buckets)-1]) == 0 {
		t.buckets = t.buckets[:len(t.buckets)-1]
	}
}

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
	b := t.bucket(bi)
	for i, c := range b {
		if c.peer.ID == p.ID {
			c.lastSeen = now
			c.fails = 0
			if len(p.Key) > 0 {
				c.peer = p
			}
			t.setBucket(bi, append(append(b[:i], b[i+1:]...), c))
			return true
		}
	}
	if len(b) < t.k {
		t.setBucket(bi, append(b, &contact{peer: p, lastSeen: now}))
		return true
	}
	for i, c := range b {
		if c.fails > 0 {
			t.setBucket(bi, append(append(b[:i], b[i+1:]...), &contact{peer: p, lastSeen: now}))
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
	b := t.bucket(bi)
	for i, c := range b {
		if c.peer.ID == id {
			c.fails++
			if c.fails >= maxContactFails {
				t.setBucket(bi, append(b[:i], b[i+1:]...))
				return true
			}
			return false
		}
	}
	return false
}

// closestScratch is the stack room a reply's closest-set walk sorts in
// before it spills to the heap: four full buckets.
const closestScratch = 4 * bucketSize

// Closest returns up to n known peers ordered by XOR distance to
// target (ties cannot occur: IDs are unique points in the metric).
func (t *Table) Closest(target ID, n int) []Peer {
	var scratch [closestScratch]*contact
	cs := t.closest(target, n, scratch[:0])
	out := make([]Peer, len(cs))
	for i, c := range cs {
		out[i] = c.peer
	}
	return out
}

// closest collects in scratch up to n contacts nearest target, nearest
// first. The table retains none of it.
//
// The buckets already partition contacts by distance. With b the
// bucket target itself falls in, contacts in bucket b lie nearer than
// 2^b, those in buckets 0..b-1 all lie in [2^b, 2^(b+1)), and those in
// bucket i > b lie in [2^i, 2^(i+1)). closest walks those groups in
// that order and sorts within each, stopping at the first group that
// reaches n, so a reply sorts about n contacts rather than the table.
func (t *Table) closest(target ID, n int, scratch []*contact) []*contact {
	b := BucketIndex(t.self, target) // -1 when target is self: groups 0, 1, 2, ...
	group := func(g int) (lo, hi int) {
		switch g {
		case 0:
			return max(b, 0), b
		case 1:
			return 0, b - 1
		}
		return b + g - 1, b + g - 1
	}
	out := scratch[:0]
	for g := 0; g <= IDBits-b && len(out) < n; g++ {
		start := len(out)
		lo, hi := group(g)
		for i := max(lo, IDBits-len(t.buckets)); i <= hi; i++ {
			out = append(out, t.bucket(i)...)
		}
		slices.SortFunc(out[start:], func(x, y *contact) int { return distanceCmp(x.peer.ID, y.peer.ID, target) })
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the total number of contacts.
func (t *Table) Len() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}
