package netsim

import (
	"fmt"
	"time"
)

// Message is the unit netsim moves between nodes. The payload is opaque to
// the simulator; upper layers (packet, openflow, middlebox) put their own
// structures here. Size drives serialization delay on links.
type Message struct {
	// Size is the on-the-wire size in bytes. Must be >= 0; zero-size
	// messages still pay propagation delay but no serialization delay.
	Size int
	// Payload is interpreted only by node handlers.
	Payload interface{}
	// Src and Dst name the originating and target nodes; router nodes use
	// Dst for next-hop forwarding. They are conventions, not enforced.
	Src, Dst string
	// TraceID lets experiments correlate a message across hops.
	TraceID uint64
	// SentAt is stamped by Port.Send on first transmission.
	SentAt time.Duration
	// Hops counts link traversals, incremented on each delivery.
	Hops int
}

// Handler receives messages delivered to a node. in is the port the message
// arrived on (nil for locally injected messages).
type Handler func(n *Node, in *Port, msg *Message)

// LinkConfig describes a bidirectional link's characteristics. Each
// direction gets its own serialization pipeline with these parameters.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BandwidthBps is the link rate in bits per second. Zero means
	// infinite (no serialization delay).
	BandwidthBps float64
	// LossRate is the independent per-message drop probability in [0,1].
	LossRate float64
	// Jitter is the standard deviation of Gaussian delay noise added to
	// propagation. Negative samples are clamped so delay never shrinks
	// below Latency/2.
	Jitter time.Duration
	// QueueBytes caps the transmit queue per direction. Zero means a
	// default of 256 KiB. Messages arriving at a full queue are dropped
	// (drop-tail).
	QueueBytes int
}

const defaultQueueBytes = 256 << 10

// PortStats counts traffic through one port (one direction of use).
type PortStats struct {
	TxMessages, TxBytes int64
	RxMessages, RxBytes int64
	QueueDrops          int64 // drop-tail losses
	RandomDrops         int64 // LossRate losses
}

// Port is one end of a link attached to a node.
type Port struct {
	node  *Node
	peer  *Port
	cfg   LinkConfig
	index int

	// busyUntil models the serialization pipeline: the time the last
	// queued byte finishes transmitting.
	busyUntil time.Duration
	// queuedBytes tracks bytes not yet on the wire, for drop-tail.
	queuedBytes int

	Stats PortStats
}

// Index returns this port's index on its node.
func (p *Port) Index() int { return p.index }

// Config returns the link configuration for this direction.
func (p *Port) Config() LinkConfig { return p.cfg }

// SetConfig replaces this direction's link characteristics from the
// current instant onward: already-queued transmissions keep their old
// schedule, later sends use the new parameters. This models link-quality
// changes (signal fade, congestion onset) and provider reconfiguration.
// Call Network.ComputeRoutes afterwards if latency changes should affect
// routing.
func (p *Port) SetConfig(cfg LinkConfig) { p.cfg = cfg }

// Send transmits msg toward the peer port, modelling serialization delay,
// queueing, propagation, jitter and random loss. It returns false if the
// message was dropped at the queue.
func (p *Port) Send(msg *Message) bool {
	net := p.node.net
	now := net.Clock.Now()
	if msg.SentAt == 0 && msg.Hops == 0 {
		msg.SentAt = now
	}

	// Queueing and serialization only exist on rate-limited links; an
	// infinite-bandwidth link transmits instantly and never builds a queue.
	var done time.Duration
	if p.cfg.BandwidthBps > 0 {
		qcap := p.cfg.QueueBytes
		if qcap == 0 {
			qcap = defaultQueueBytes
		}
		if p.queuedBytes+msg.Size > qcap && p.queuedBytes > 0 {
			p.Stats.QueueDrops++
			return false
		}
		txDelay := time.Duration(float64(msg.Size*8) / p.cfg.BandwidthBps * float64(time.Second))
		start := p.busyUntil
		if start < now {
			start = now
		}
		done = start + txDelay
		p.busyUntil = done
		p.queuedBytes += msg.Size
		// Dequeue accounting happens when the message leaves the pipeline.
		net.Clock.At(done, func() {
			p.queuedBytes -= msg.Size
			if p.queuedBytes < 0 {
				p.queuedBytes = 0
			}
		})
	} else {
		done = now
	}
	p.Stats.TxMessages++
	p.Stats.TxBytes += int64(msg.Size)

	if net.rng.Bool(p.cfg.LossRate) {
		p.Stats.RandomDrops++
		return true // consumed link time, but never arrives
	}

	prop := p.cfg.Latency
	if p.cfg.Jitter > 0 {
		j := time.Duration(net.rng.Normal(0, float64(p.cfg.Jitter)))
		prop += j
		if prop < p.cfg.Latency/2 {
			prop = p.cfg.Latency / 2
		}
	}
	peer := p.peer
	net.Clock.At(done+prop, func() {
		msg.Hops++
		peer.Stats.RxMessages++
		peer.Stats.RxBytes += int64(msg.Size)
		if peer.node.Handler != nil {
			peer.node.Handler(peer.node, peer, msg)
		}
	})
	return true
}

// Node is a simulated host, switch or server.
type Node struct {
	ID      string
	Handler Handler
	net     *Network
	ports   []*Port

	// routes maps destination node ID -> local port index, built by
	// Network.ComputeRoutes.
	routes map[string]int
}

// Network returns the network this node belongs to.
func (n *Node) Network() *Network { return n.net }

// Ports returns the node's ports in attachment order.
func (n *Node) Ports() []*Port { return n.ports }

// Port returns the i'th port, or nil if out of range.
func (n *Node) Port(i int) *Port {
	if i < 0 || i >= len(n.ports) {
		return nil
	}
	return n.ports[i]
}

// PortTo returns the local port whose peer is node dst, or nil if the nodes
// are not directly connected.
func (n *Node) PortTo(dst string) *Port {
	for _, p := range n.ports {
		if p.peer.node.ID == dst {
			return p
		}
	}
	return nil
}

// RouteTo returns the port toward dst per the last ComputeRoutes call. It
// returns nil when no route is known.
func (n *Node) RouteTo(dst string) *Port {
	if n.routes == nil {
		return nil
	}
	i, ok := n.routes[dst]
	if !ok {
		return nil
	}
	return n.ports[i]
}

// Inject delivers msg to this node's handler at the current instant without
// traversing any link, as if generated locally.
func (n *Node) Inject(msg *Message) {
	n.net.Clock.Schedule(0, func() {
		if n.Handler != nil {
			n.Handler(n, nil, msg)
		}
	})
}

// Network owns the topology and the clock.
type Network struct {
	Clock *Clock
	rng   *RNG
	nodes map[string]*Node
	order []string // deterministic iteration order
}

// NewNetwork creates an empty network with its own clock, seeded for
// reproducible stochastic behaviour.
func NewNetwork(seed uint64) *Network {
	return &Network{
		Clock: &Clock{},
		rng:   NewRNG(seed),
		nodes: make(map[string]*Node),
	}
}

// RNG exposes the network's base generator, e.g. for workload generators
// that want draws correlated with the topology seed. Fork it rather than
// sharing it across subsystems.
func (net *Network) RNG() *RNG { return net.rng }

// AddNode creates a node with the given unique ID. It panics on duplicate
// IDs, which always indicate a topology construction bug.
func (net *Network) AddNode(id string) *Node {
	if _, dup := net.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	n := &Node{ID: id, net: net}
	net.nodes[id] = n
	net.order = append(net.order, id)
	return n
}

// Nodes returns all nodes in creation order.
func (net *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(net.order))
	for _, id := range net.order {
		out = append(out, net.nodes[id])
	}
	return out
}

// Connect joins two nodes with a symmetric bidirectional link. Both
// directions share cfg. It returns the two new ports (a's, then b's).
func (net *Network) Connect(a, b *Node, cfg LinkConfig) (*Port, *Port) {
	return net.ConnectAsym(a, b, cfg, cfg)
}

// ConnectAsym joins two nodes with per-direction configurations: ab governs
// traffic a->b, ba governs b->a. Useful for asymmetric last-mile links.
func (net *Network) ConnectAsym(a, b *Node, ab, ba LinkConfig) (*Port, *Port) {
	if a.net != net || b.net != net {
		panic("netsim: Connect with node from another network")
	}
	pa := &Port{node: a, cfg: ab, index: len(a.ports)}
	pb := &Port{node: b, cfg: ba, index: len(b.ports)}
	pa.peer, pb.peer = pb, pa
	a.ports = append(a.ports, pa)
	b.ports = append(b.ports, pb)
	return pa, pb
}

// ComputeRoutes builds shortest-path next-hop tables for every node using
// link latency as the edge weight (ties broken by node creation order).
// Call it after the topology is final; call again if links change.
func (net *Network) ComputeRoutes() {
	for _, srcID := range net.order {
		src := net.nodes[srcID]
		src.routes = net.dijkstra(src)
	}
}

// dijkstra returns dst -> first-hop port index from src.
func (net *Network) dijkstra(src *Node) map[string]int {
	const inf = time.Duration(1<<62 - 1)
	dist := make(map[string]time.Duration, len(net.nodes))
	firstPort := make(map[string]int, len(net.nodes))
	for _, id := range net.order {
		dist[id] = inf
	}
	dist[src.ID] = 0

	visited := make(map[string]bool, len(net.nodes))
	for range net.order {
		// Extract the unvisited node with minimal distance,
		// deterministically (creation order breaks ties).
		cur := ""
		best := inf
		for _, id := range net.order {
			if !visited[id] && dist[id] < best {
				best, cur = dist[id], id
			}
		}
		if cur == "" {
			break
		}
		visited[cur] = true
		n := net.nodes[cur]
		for _, p := range n.ports {
			peer := p.peer.node
			w := p.cfg.Latency
			if w <= 0 {
				w = time.Nanosecond // keep paths strictly increasing
			}
			nd := dist[cur] + w
			if nd < dist[peer.ID] {
				dist[peer.ID] = nd
				if cur == src.ID {
					firstPort[peer.ID] = p.index
				} else {
					firstPort[peer.ID] = firstPort[cur]
				}
			}
		}
	}
	delete(firstPort, src.ID)
	return firstPort
}

// RouterHandler returns a Handler that forwards messages toward msg.Dst
// using the routing tables, delivering to fallback when the destination is
// this node or unroutable. It is the standard behaviour for backbone nodes.
func RouterHandler(fallback Handler) Handler {
	return func(n *Node, in *Port, msg *Message) {
		if msg.Dst == n.ID || msg.Dst == "" {
			if fallback != nil {
				fallback(n, in, msg)
			}
			return
		}
		if p := n.RouteTo(msg.Dst); p != nil {
			p.Send(msg)
			return
		}
		if fallback != nil {
			fallback(n, in, msg)
		}
	}
}
