package netsim

import "time"

// Link presets used across experiments. Bandwidths are bits per second.
// The values follow the qualitative classes the paper argues about:
// fixed-line ISP cores are fast and clean, wireless last miles are slower
// and lossier, and interdomain tunnels add tens to hundreds of
// milliseconds (§2.2, §3.2).
var (
	// GoodWiFi models a healthy home/office WLAN hop.
	GoodWiFi = LinkConfig{Latency: 3 * time.Millisecond, BandwidthBps: 100e6, LossRate: 0.001, Jitter: time.Millisecond}
	// PoorWiFi models a congested public hotspot.
	PoorWiFi = LinkConfig{Latency: 15 * time.Millisecond, BandwidthBps: 10e6, LossRate: 0.02, Jitter: 8 * time.Millisecond}
	// GoodCellular models a strong LTE connection.
	GoodCellular = LinkConfig{Latency: 25 * time.Millisecond, BandwidthBps: 30e6, LossRate: 0.005, Jitter: 5 * time.Millisecond}
	// PoorCellular models a weak or loaded cellular connection.
	PoorCellular = LinkConfig{Latency: 70 * time.Millisecond, BandwidthBps: 2e6, LossRate: 0.03, Jitter: 20 * time.Millisecond}
	// ISPCore models an intra-ISP backbone hop.
	ISPCore = LinkConfig{Latency: 2 * time.Millisecond, BandwidthBps: 10e9, LossRate: 0, Jitter: 0}
	// WideArea models the path from ISP edge to distant content servers.
	WideArea = LinkConfig{Latency: 40 * time.Millisecond, BandwidthBps: 1e9, LossRate: 0.0005, Jitter: 2 * time.Millisecond}
	// InterdomainGood models a tunnel to a well-connected nearby network
	// (the paper's "10s of ms" case, §3.2).
	InterdomainGood = LinkConfig{Latency: 20 * time.Millisecond, BandwidthBps: 500e6, LossRate: 0.001, Jitter: 2 * time.Millisecond}
	// InterdomainPoor models a tunnel to a poorly-connected network (the
	// paper's "100s of ms" case, §3.2).
	InterdomainPoor = LinkConfig{Latency: 150 * time.Millisecond, BandwidthBps: 50e6, LossRate: 0.01, Jitter: 20 * time.Millisecond}
)

// AccessTopology is the canonical experiment topology, following Fig 1(b):
//
//	Device --(last mile)-- AccessPoint -- ISPEdge -- ISPCoreNode -- Internet -- Server
//	                                        |                         |
//	                                     PVNHost                  CloudHost
//	                                                                  |
//	                                                              HomeHost
//
// PVNHost hangs off the ISP edge (in-network middlebox placement);
// CloudHost and HomeHost hang off the wide-area node and are only reachable
// by paying interdomain latency, which is what tunneling baselines do.
type AccessTopology struct {
	Net *Network

	Device      *Node
	AccessPoint *Node
	ISPEdge     *Node
	ISPCoreNode *Node
	Internet    *Node
	Server      *Node
	PVNHost     *Node
	CloudHost   *Node
	HomeHost    *Node
}

// AccessTopologyConfig parameterizes NewAccessTopology. The last mile
// is always GoodWiFi and the ISP core <-> internet link always WideArea.
type AccessTopologyConfig struct {
	// Seed drives all stochastic behaviour in the topology's network.
	Seed uint64
	// CloudTunnel is the internet<->cloud host link. Defaults to
	// InterdomainGood.
	CloudTunnel LinkConfig
	// HomeTunnel is the internet<->home host link. Defaults to
	// InterdomainPoor (residential uplinks are the slow case).
	HomeTunnel LinkConfig
}

func (c *AccessTopologyConfig) applyDefaults() {
	zero := LinkConfig{}
	if c.CloudTunnel == zero {
		c.CloudTunnel = InterdomainGood
	}
	if c.HomeTunnel == zero {
		c.HomeTunnel = InterdomainPoor
	}
}

// NewAccessTopology builds the canonical topology, computes routes, and
// installs RouterHandlers on the transit nodes. Endpoint nodes (Device,
// Server, PVNHost, CloudHost, HomeHost) have no handler; callers attach
// their own.
func NewAccessTopology(cfg AccessTopologyConfig) *AccessTopology {
	cfg.applyDefaults()
	net := NewNetwork(cfg.Seed)
	t := &AccessTopology{
		Net:         net,
		Device:      net.AddNode("device"),
		AccessPoint: net.AddNode("ap"),
		ISPEdge:     net.AddNode("isp-edge"),
		ISPCoreNode: net.AddNode("isp-core"),
		Internet:    net.AddNode("internet"),
		Server:      net.AddNode("server"),
		PVNHost:     net.AddNode("pvn-host"),
		CloudHost:   net.AddNode("cloud-host"),
		HomeHost:    net.AddNode("home-host"),
	}

	net.Connect(t.Device, t.AccessPoint, GoodWiFi)
	net.Connect(t.AccessPoint, t.ISPEdge, ISPCore)
	net.Connect(t.ISPEdge, t.ISPCoreNode, ISPCore)
	net.Connect(t.ISPCoreNode, t.Internet, WideArea)
	net.Connect(t.Internet, t.Server, LinkConfig{Latency: 2 * time.Millisecond, BandwidthBps: 10e9})
	// In-network middlebox host: one backbone hop from the edge.
	net.Connect(t.ISPEdge, t.PVNHost, LinkConfig{Latency: 500 * time.Microsecond, BandwidthBps: 10e9})
	// Off-network PVN hosts: interdomain cost applies.
	net.Connect(t.Internet, t.CloudHost, cfg.CloudTunnel)
	net.Connect(t.Internet, t.HomeHost, cfg.HomeTunnel)

	net.ComputeRoutes()

	for _, transit := range []*Node{t.AccessPoint, t.ISPEdge, t.ISPCoreNode, t.Internet} {
		transit.Handler = RouterHandler(nil)
	}
	return t
}

// NewStarTopology builds hub-and-spoke with n leaves, each connected to the
// hub by leafLink. Useful for discovery and scalability experiments.
// Leaves are named leaf0..leaf(n-1); the hub routes between them.
func NewStarTopology(seed uint64, n int, leafLink LinkConfig) (*Network, *Node, []*Node) {
	net := NewNetwork(seed)
	hub := net.AddNode("hub")
	leaves := make([]*Node, n)
	for i := range leaves {
		leaves[i] = net.AddNode("leaf" + itoa(i))
		net.Connect(leaves[i], hub, leafLink)
	}
	net.ComputeRoutes()
	hub.Handler = RouterHandler(nil)
	return net, hub, leaves
}

// NewDualStarTopology builds two hub-and-spoke clusters joined by one
// hub-to-hub bridge — the minimal topology with a partitionable cut.
// Severing the bridge (Port.SetConfig with LossRate 1 on both hub
// ports) splits the network into two islands; restoring it heals them.
// Leaves are named a0..a(nA-1) and b0..b(nB-1); both hubs route.
func NewDualStarTopology(seed uint64, nA, nB int, leafLink, bridge LinkConfig) (*Network, [2]*Node, [2][]*Node) {
	net := NewNetwork(seed)
	hubs := [2]*Node{net.AddNode("hub-a"), net.AddNode("hub-b")}
	var leaves [2][]*Node
	prefixes := [2]string{"a", "b"}
	counts := [2]int{nA, nB}
	for side := 0; side < 2; side++ {
		leaves[side] = make([]*Node, counts[side])
		for i := range leaves[side] {
			leaves[side][i] = net.AddNode(prefixes[side] + itoa(i))
			net.Connect(leaves[side][i], hubs[side], leafLink)
		}
	}
	net.Connect(hubs[0], hubs[1], bridge)
	net.ComputeRoutes()
	hubs[0].Handler = RouterHandler(nil)
	hubs[1].Handler = RouterHandler(nil)
	return net, hubs, leaves
}

// FleetTopology models a multi-host edge fleet: a core router, one
// aggregation switch per failure domain (rack/zone), and edge hosts
// spread round-robin across the domains. Racks sit at increasing
// distance from the core — domain d's uplink latency is (d+1)× the
// base — so hosts have heterogeneous delays for placement budgets.
type FleetTopology struct {
	Net  *Network
	Core *Node
	// Aggs[d] is failure domain d's aggregation switch.
	Aggs []*Node
	// Hosts[i] lives in failure domain HostDomain[i].
	Hosts      []*Node
	HostDomain []int

	hostDelay []time.Duration
}

// NewFleetTopology builds the fleet and computes routes. Core and
// aggregation switches route; hosts carry no handler (callers attach
// deployserver worlds or traffic sinks).
func NewFleetTopology(seed uint64, hosts, domains int, aggLink, hostLink LinkConfig) *FleetTopology {
	if domains < 1 {
		domains = 1
	}
	net := NewNetwork(seed)
	t := &FleetTopology{Net: net, Core: net.AddNode("core")}
	for d := 0; d < domains; d++ {
		agg := net.AddNode("rack" + itoa(d))
		up := aggLink
		up.Latency = aggLink.Latency * time.Duration(d+1)
		net.Connect(t.Core, agg, up)
		t.Aggs = append(t.Aggs, agg)
	}
	for i := 0; i < hosts; i++ {
		d := i % domains
		h := net.AddNode("host" + itoa(i))
		net.Connect(t.Aggs[d], h, hostLink)
		t.Hosts = append(t.Hosts, h)
		t.HostDomain = append(t.HostDomain, d)
		t.hostDelay = append(t.hostDelay, aggLink.Latency*time.Duration(d+1)+hostLink.Latency)
	}
	net.ComputeRoutes()
	t.Core.Handler = RouterHandler(nil)
	for _, agg := range t.Aggs {
		agg.Handler = RouterHandler(nil)
	}
	return t
}

// HostDelay is host i's one-way core→host propagation delay — the
// figure placement delay budgets are checked against.
func (t *FleetTopology) HostDelay(i int) time.Duration { return t.hostDelay[i] }

// itoa is a tiny allocation-free int formatter for node names.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
