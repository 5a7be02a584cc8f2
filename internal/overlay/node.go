package overlay

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/pki"
)

// The Kademlia constants every node runs with.
const (
	bucketSize   = 16              // bucket size and lookup width
	lookupAlpha  = 3               // queries in flight per lookup round
	rpcTimeout   = 2 * time.Second // wait before the contact takes a strike
	gossipSample = 16              // reputation claims piggybacked per envelope
)

// Config tunes one overlay node. Bucket size (16), lookup parallelism
// (3), the RPC timeout (2s) and the gossip sample (16 claims) are the
// same for every node.
type Config struct {
	// Replicate is how many of the closest nodes receive each Put.
	// Zero means 8.
	Replicate int
}

func (c Config) withDefaults() Config {
	if c.Replicate <= 0 {
		c.Replicate = 8
	}
	return c
}

// Stats counts one node's overlay activity.
type Stats struct {
	RPCsSent     int // requests issued
	RepliesSent  int // requests answered
	Timeouts     int // requests that expired unanswered
	BadEnvelopes int // undecodable wire messages dropped
	BadRecords   int // records rejected by verification (store requests and lookup replies)
	GossipMerged int // reputation claims that changed local state
	// RecordVerifies counts full Record.Verify runs; a record this node
	// already verified is a memo hit and does not count.
	RecordVerifies int
	VerifyFlushes  int // times the verified-record memo hit maxVerified and was emptied
	KeysRefused    int // records refused because the store already holds maxKeys keys
}

// maxVerified bounds the verified-record memo; on overflow it is
// emptied whole, so a record costs at most one more Verify after a
// flush.
const maxVerified = 1024

// maxKeys bounds how many distinct keys one node stores records under.
// admit caps publishers per key (maxRecords); this caps the keys, so a
// peer minting validly self-signed records under fresh service or
// content keys cannot grow a replica's store without limit.
const maxKeys = 1024

// ErrStoreFull is returned (and carried in a stored reply's Err) when a
// record under a new key arrives at a node already holding maxKeys keys.
var ErrStoreFull = errors.New("overlay: record store full")

// pendingRPC tracks one in-flight request awaiting its response.
type pendingRPC struct {
	to        ID
	onReply   func(inbound)
	onTimeout func()
}

// Node is one overlay participant riding on a netsim node. It is
// single-threaded: every transition happens inside a netsim clock
// event, so there are no locks and runs are deterministic.
type Node struct {
	cfg   Config
	kp    pki.KeyPair
	self  Peer
	sim   *netsim.Node
	clock *netsim.Clock

	table   *Table
	records map[ID]map[string]verified // key -> publisher -> record
	rep     *RepStore

	// verified holds the digests of records whose Verify passed here
	// (see verifyRecord).
	verified map[[sha256.Size]byte]struct{}

	nextRPC uint64
	pending map[uint64]*pendingRPC
	alive   bool

	// TamperStored, when set, lets a test or experiment model a
	// malicious replica: it may return a modified record to serve in
	// place of the stored one. Honest nodes leave it nil.
	TamperStored func(*Record) *Record

	Stats Stats
}

// NewNode attaches an overlay participant to a netsim node. The
// identity is the fingerprint of the key pair; the transport address
// is the netsim node ID. The sim node's handler is replaced with one
// that routes foreign traffic (so overlay nodes can sit on backbone
// positions) and delivers overlay envelopes locally.
func NewNode(sim *netsim.Node, kp pki.KeyPair, cfg Config) *Node {
	n := &Node{
		cfg:      cfg.withDefaults(),
		kp:       kp,
		self:     Peer{ID: IDFromPublicKey(kp.Public), Addr: sim.ID, Key: kp.Public},
		sim:      sim,
		clock:    sim.Network().Clock,
		records:  make(map[ID]map[string]verified),
		rep:      NewRepStore(),
		verified: make(map[[sha256.Size]byte]struct{}),
		pending:  make(map[uint64]*pendingRPC),
		alive:    true,
	}
	n.table = NewTable(n.self.ID, bucketSize)
	sim.Handler = netsim.RouterHandler(func(_ *netsim.Node, _ *netsim.Port, msg *netsim.Message) {
		n.deliver(msg)
	})
	return n
}

// Self returns this node's peer identity.
func (n *Node) Self() Peer { return n.self }

// Table exposes the routing table (read-only use expected).
func (n *Node) Table() *Table { return n.table }

// Rep exposes the node's merged reputation view.
func (n *Node) Rep() *RepStore { return n.rep }

// Alive reports whether the node is participating.
func (n *Node) Alive() bool { return n.alive }

// Leave makes the node depart abruptly: it stops answering and
// issuing RPCs. Peers notice through timeouts, exactly as with a real
// crash — there is no goodbye message.
func (n *Node) Leave() { n.alive = false }

// Seed inserts a bootstrap contact directly (out-of-band introduction).
func (n *Node) Seed(p Peer) { n.table.Update(p, n.clock.Now()) }

// Join bootstraps via the given contact: seed it, then look up our own
// ID, which populates buckets along the path. done (optional) receives
// the lookup outcome.
func (n *Node) Join(bootstrap Peer, done func(LookupResult)) {
	n.Seed(bootstrap)
	n.Lookup(n.self.ID, done)
}

// Refresh re-runs the self-lookup, repopulating buckets after churn.
func (n *Node) Refresh(done func(LookupResult)) { n.Lookup(n.self.ID, done) }

// StoreLocal records a record on this node without any network traffic
// (the node is its own first replica). It enforces the same
// verification and key cap as a remote store.
func (n *Node) StoreLocal(r *Record) error {
	v, err := n.verifyRecord(r)
	if err != nil {
		return err
	}
	return n.admit(v)
}

// verified is a record whose Verify passed on this node. verifyRecord
// is the only function that makes one, and every write of a record
// into node state (admit, and the lookup merge) takes one, so a record
// off the wire cannot reach state unverified: that would not compile.
// It is the pointer alone, and costs nothing to pass.
type verified struct{ r *Record }

// verifyRecord is r.Verify, run once per node for each record. Verify
// is a pure function of the record's fields and recordDigest hashes
// every one of them, so a memo hit means this node already ran Verify
// on identical input and it passed: the memo is exact, not a cache of
// a looser check. Only successes are kept, so a bad record re-runs
// Verify every time it arrives.
func (n *Node) verifyRecord(r *Record) (verified, error) {
	d := recordDigest(r)
	if _, ok := n.verified[d]; ok {
		return verified{r}, nil
	}
	n.Stats.RecordVerifies++
	if err := r.Verify(); err != nil {
		return verified{}, err
	}
	if len(n.verified) >= maxVerified {
		clear(n.verified)
		n.Stats.VerifyFlushes++
	}
	n.verified[d] = struct{}{}
	return verified{r}, nil
}

// recordDigest is the verified-record memo key: SHA-256 over every
// field Verify reads, each length-prefixed so no two records share a
// preimage. It is never keyed on the pointer, the signature alone, or
// (publisher, seq): a replica that keeps the signature and swaps the
// body must miss.
func recordDigest(r *Record) [sha256.Size]byte {
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], r.Seq)
	// An offer record's preimage fits the stack buffer; larger bodies
	// spill to the heap.
	var buf [1024]byte
	b := buf[:0]
	b = appendField(b, r.Kind)
	b = appendField(b, r.Key[:])
	b = appendField(b, r.Service)
	b = appendField(b, r.Publisher)
	b = appendField(b, r.PublicKey)
	b = appendField(b, seq[:])
	b = appendField(b, r.Body)
	b = appendField(b, r.Sig)
	return sha256.Sum256(b)
}

// appendField appends f to b behind its 8-byte big-endian length.
func appendField[T ~string | ~[]byte](b []byte, f T) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(f)))
	return append(b, f...)
}

// admit stores a verified record, keeping the highest Seq per
// (key, publisher). A stale Seq, or a new publisher under a key already
// holding maxRecords of them, is dropped silently; a new key past
// maxKeys is refused with ErrStoreFull.
func (n *Node) admit(v verified) error {
	r := v.r
	byPub := n.records[r.Key]
	if byPub == nil {
		if len(n.records) >= maxKeys {
			n.Stats.KeysRefused++
			return ErrStoreFull
		}
		byPub = make(map[string]verified)
		n.records[r.Key] = byPub
	}
	if old, ok := byPub[r.Publisher]; ok && old.r.Seq >= r.Seq {
		return nil
	}
	if len(byPub) >= maxRecords {
		if _, ok := byPub[r.Publisher]; !ok {
			return nil // key full of other publishers; bound memory
		}
	}
	byPub[r.Publisher] = v
	return nil
}

// held returns the records under key in deterministic publisher order,
// through the tamper hook if a malicious replica is being modelled.
func (n *Node) held(key ID) []*Record {
	byPub := n.records[key]
	if len(byPub) == 0 {
		return nil
	}
	pubs := make([]string, 0, len(byPub))
	for p := range byPub {
		pubs = append(pubs, p)
	}
	sort.Strings(pubs)
	out := make([]*Record, 0, len(pubs))
	for _, p := range pubs {
		r := byPub[p].r
		if n.TamperStored != nil {
			if t := n.TamperStored(r); t != nil {
				r = t
			}
		}
		out = append(out, r)
	}
	return out
}

// envelope stamps the shared fields of an outgoing message, including
// the piggybacked gossip sample.
func (n *Node) envelope(kind string, rpc uint64) *Envelope {
	e := &Envelope{
		Kind: kind,
		RPC:  rpc,
		From: PeerInfo{ID: n.self.ID, Addr: n.self.Addr, Key: n.kp.Public},
	}
	e.Gossip = n.rep.Sample(gossipSample)
	return e
}

// transmit routes one envelope toward a peer's address.
func (n *Node) transmit(to Peer, e *Envelope) {
	data := e.Encode()
	msg := &netsim.Message{
		Size:    len(data),
		Payload: data,
		Src:     n.self.Addr,
		Dst:     to.Addr,
	}
	if to.Addr == n.self.Addr {
		n.sim.Inject(msg)
		return
	}
	if port := n.sim.RouteTo(to.Addr); port != nil {
		port.Send(msg)
	}
	// No route: the message silently vanishes and, for requests, the
	// RPC timeout does its job — same observable behaviour as loss.
}

// request issues one RPC and arms its timeout. Exactly one of onReply
// and onTimeout eventually fires.
func (n *Node) request(to Peer, e *Envelope, onReply func(inbound), onTimeout func()) {
	n.nextRPC++
	id := n.nextRPC
	e.RPC = id
	n.pending[id] = &pendingRPC{to: to.ID, onReply: onReply, onTimeout: onTimeout}
	n.Stats.RPCsSent++
	n.transmit(to, e)
	n.clock.Schedule(rpcTimeout, func() {
		p, ok := n.pending[id]
		if !ok {
			return
		}
		delete(n.pending, id)
		n.Stats.Timeouts++
		n.table.Fail(p.to)
		if p.onTimeout != nil {
			p.onTimeout()
		}
	})
}

// deliver is the netsim entry point for envelopes addressed to us.
func (n *Node) deliver(msg *netsim.Message) {
	if !n.alive {
		return
	}
	data, ok := msg.Payload.([]byte)
	if !ok {
		n.Stats.BadEnvelopes++
		return
	}
	e, err := DecodeEnvelope(data)
	if err != nil {
		n.Stats.BadEnvelopes++
		return
	}
	in := inbound{e}
	// Every valid envelope refreshes the sender's contact and merges
	// its gossip — anti-entropy rides on all traffic.
	n.table.Update(in.sender(), n.clock.Now())
	n.Stats.GossipMerged += n.rep.Merge(e.Gossip)

	switch e.Kind {
	case KindPong, KindNodes, KindValue, KindStored:
		if p, ok := n.pending[e.RPC]; ok {
			delete(n.pending, e.RPC)
			if p.onReply != nil {
				p.onReply(in)
			}
		}
	case KindPing:
		n.reply(in, n.envelope(KindPong, e.RPC))
	case KindFindNode:
		resp := n.envelope(KindNodes, e.RPC)
		resp.Peers = n.closestInfos(e.Target)
		n.reply(in, resp)
	case KindFindValue:
		if recs := n.held(e.Target); len(recs) > 0 {
			resp := n.envelope(KindValue, e.RPC)
			resp.Records = recs
			resp.Peers = n.closestInfos(e.Target)
			n.reply(in, resp)
			return
		}
		resp := n.envelope(KindNodes, e.RPC)
		resp.Peers = n.closestInfos(e.Target)
		n.reply(in, resp)
	case KindStore:
		resp := n.envelope(KindStored, e.RPC)
		if e.Record == nil {
			resp.Err = "no record"
		} else if v, err := n.verifyRecord(e.Record); err != nil {
			// A replica never stores what it cannot verify: the DHT
			// carries only publisher-signed, key-bound records.
			n.Stats.BadRecords++
			resp.Err = err.Error()
		} else if err := n.admit(v); err != nil {
			resp.Err = err.Error()
		}
		n.reply(in, resp)
	}
}

// reply answers a request, excluding the asker from any peer list.
func (n *Node) reply(req inbound, resp *Envelope) {
	if len(resp.Peers) > 0 {
		kept := resp.Peers[:0]
		for _, p := range resp.Peers {
			if p.ID != req.From.ID {
				kept = append(kept, p)
			}
		}
		resp.Peers = kept
	}
	n.Stats.RepliesSent++
	n.transmit(req.sender(), resp)
}

// closestInfos serializes our k closest contacts to target.
func (n *Node) closestInfos(target ID) []PeerInfo {
	var scratch [closestScratch]*contact
	cs := n.table.closest(target, bucketSize, scratch[:0])
	out := make([]PeerInfo, len(cs))
	for i, c := range cs {
		out[i] = PeerInfo{ID: c.peer.ID, Addr: c.peer.Addr, Key: c.peer.Key}
	}
	return out
}
