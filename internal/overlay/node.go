package overlay

import (
	"sort"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/pki"
)

// Config tunes one overlay node.
type Config struct {
	// K is the bucket size and replication target. Zero means 16.
	K int
	// Alpha is the lookup parallelism: queries in flight per round.
	// Zero means 3.
	Alpha int
	// RPCTimeout is how long a request waits before the contact takes a
	// strike. Zero means 2s.
	RPCTimeout time.Duration
	// Replicate is how many of the closest nodes receive each Put.
	// Zero means 8.
	Replicate int
	// GossipSample caps the reputation claims piggybacked per envelope.
	// Zero means 16; negative disables gossip.
	GossipSample int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 16
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.Replicate <= 0 {
		c.Replicate = 8
	}
	if c.GossipSample == 0 {
		c.GossipSample = 16
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
}

// pendingRPC tracks one in-flight request awaiting its response.
type pendingRPC struct {
	to        ID
	onReply   func(*Envelope)
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
	records map[ID]map[string]*Record // key -> publisher -> record
	rep     *RepStore

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
		cfg:     cfg.withDefaults(),
		kp:      kp,
		self:    Peer{ID: IDFromPublicKey(kp.Public), Addr: sim.ID, Key: kp.Public},
		sim:     sim,
		clock:   sim.Network().Clock,
		records: make(map[ID]map[string]*Record),
		rep:     NewRepStore(),
		pending: make(map[uint64]*pendingRPC),
		alive:   true,
	}
	n.table = NewTable(n.self.ID, n.cfg.K)
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
// verification as a remote store.
func (n *Node) StoreLocal(r *Record) error {
	if err := r.Verify(); err != nil {
		return err
	}
	n.admit(r)
	return nil
}

// RecordCount returns how many records this node holds.
func (n *Node) RecordCount() int {
	c := 0
	for _, byPub := range n.records {
		c += len(byPub)
	}
	return c
}

// admit stores a verified record, keeping the highest Seq per
// (key, publisher).
func (n *Node) admit(r *Record) bool {
	byPub := n.records[r.Key]
	if byPub == nil {
		byPub = make(map[string]*Record)
		n.records[r.Key] = byPub
	}
	if old, ok := byPub[r.Publisher]; ok && old.Seq >= r.Seq {
		return false
	}
	if len(byPub) >= maxRecords {
		if _, ok := byPub[r.Publisher]; !ok {
			return false // key full of other publishers; bound memory
		}
	}
	byPub[r.Publisher] = r
	return true
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
		r := byPub[p]
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
	if n.cfg.GossipSample > 0 {
		e.Gossip = n.rep.Sample(n.cfg.GossipSample)
	}
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
func (n *Node) request(to Peer, e *Envelope, onReply func(*Envelope), onTimeout func()) {
	n.nextRPC++
	id := n.nextRPC
	e.RPC = id
	n.pending[id] = &pendingRPC{to: to.ID, onReply: onReply, onTimeout: onTimeout}
	n.Stats.RPCsSent++
	n.transmit(to, e)
	n.clock.Schedule(n.cfg.RPCTimeout, func() {
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
	// Every valid envelope refreshes the sender's contact and merges
	// its gossip — anti-entropy rides on all traffic.
	//lint:allow trustflow DecodeEnvelope validated From's key binding; contact freshness is by design unauthenticated (Kademlia liveness, not identity)
	n.table.Update(e.From.Peer(), n.clock.Now())
	//lint:allow trustflow gossip claims are unsigned by design; Merge caps per-claim influence and the reputation model discounts unverified reporters
	n.Stats.GossipMerged += n.rep.Merge(e.Gossip)

	switch e.Kind {
	case KindPong, KindNodes, KindValue, KindStored:
		if p, ok := n.pending[e.RPC]; ok {
			delete(n.pending, e.RPC)
			if p.onReply != nil {
				p.onReply(e)
			}
		}
	case KindPing:
		n.reply(e, n.envelope(KindPong, e.RPC))
	case KindFindNode:
		resp := n.envelope(KindNodes, e.RPC)
		resp.Peers = n.closestInfos(e.Target)
		n.reply(e, resp)
	case KindFindValue:
		if recs := n.held(e.Target); len(recs) > 0 {
			resp := n.envelope(KindValue, e.RPC)
			resp.Records = recs
			resp.Peers = n.closestInfos(e.Target)
			n.reply(e, resp)
			return
		}
		resp := n.envelope(KindNodes, e.RPC)
		resp.Peers = n.closestInfos(e.Target)
		n.reply(e, resp)
	case KindStore:
		resp := n.envelope(KindStored, e.RPC)
		if e.Record == nil {
			resp.Err = "no record"
		} else if err := e.Record.Verify(); err != nil {
			// A replica never stores what it cannot verify: the DHT
			// carries only publisher-signed, key-bound records.
			n.Stats.BadRecords++
			resp.Err = err.Error()
		} else {
			n.admit(e.Record)
		}
		n.reply(e, resp)
	}
}

// reply answers a request, excluding the asker from any peer list.
func (n *Node) reply(req *Envelope, resp *Envelope) {
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
	n.transmit(req.From.Peer(), resp)
}

// closestInfos serializes our k closest contacts to target.
func (n *Node) closestInfos(target ID) []PeerInfo {
	peers := n.table.Closest(target, n.cfg.K)
	out := make([]PeerInfo, 0, len(peers))
	for _, p := range peers {
		out = append(out, PeerInfo{ID: p.ID, Addr: p.Addr, Key: p.Key})
	}
	return out
}
