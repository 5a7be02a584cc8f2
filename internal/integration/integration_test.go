package integration

import (
	"bytes"
	"testing"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/core"
	"pvn/internal/discovery"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/tcpflow"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

const cfgSrc = `
pvnc integration
owner alice
device 10.0.0.5
middlebox pii pii-detect mode=block secrets=hunter2
chain secure pii
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 90 match proto=tcp dport=993 action=tunnel:cloud
policy 0 match any action=forward
`

// world wires device -- edge(switch) -- {server, cloud} over netsim with
// a PVN deployed on the edge via the full core lifecycle.
type world struct {
	net     *netsim.Network
	device  *RTTCollector
	edge    *SwitchNode
	server  *EchoServer
	cloud   *netsim.Node
	session *core.Session
	network *core.AccessNetwork
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{}
	w.net = netsim.NewNetwork(1)
	deviceNode := w.net.AddNode("device")
	edgeNode := w.net.AddNode("edge")
	serverNode := w.net.AddNode("server")
	w.cloud = w.net.AddNode("cloud")
	// Port layout on edge: 0=device, 1=server, 2=cloud.
	w.net.Connect(deviceNode, edgeNode, netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 100e6})
	w.net.Connect(edgeNode, serverNode, netsim.LinkConfig{Latency: 20 * time.Millisecond, BandwidthBps: 1e9})
	w.net.Connect(edgeNode, w.cloud, netsim.LinkConfig{Latency: 40 * time.Millisecond, BandwidthBps: 500e6})
	w.net.ComputeRoutes()

	// Access network whose clock IS the simulation clock.
	vendorKey, _ := pki.GenerateKey(pki.NewDeterministicRand(9))
	vendor := pki.NewRootCA("Vendor", vendorKey, 0, 1<<40)
	network, err := core.NewStandardNetwork(core.NetworkConfig{
		Name: "edge-isp",
		Provider: &discovery.ProviderPolicy{
			Provider: "edge-isp", DeployServer: "edge",
			Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
			Supported: map[string]int64{"pii-detect": 0},
		},
		Now:    w.net.Clock.Now,
		Vendor: vendor, VendorSeed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.network = network

	cfg, err := pvnc.Parse(cfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	dev := &core.Device{
		ID: "dev1", Addr: packet.MustParseIPv4("10.0.0.5"), Config: cfg,
		BudgetMicro: 100, Strategy: discovery.StrategyReduce,
		Vendors: pki.NewTrustStore(vendor.Cert),
	}
	session, err := core.Connect(dev, []*core.AccessNetwork{network})
	if err != nil {
		t.Fatal(err)
	}
	if session.Mode != core.ModeInNetwork {
		t.Fatalf("mode %v", session.Mode)
	}
	w.session = session

	// Wire the deployed switch onto the edge node, with a tunnel table
	// for the cloud endpoint.
	w.edge = Attach(edgeNode, network.Server.Switch)
	w.edge.Tunnels = tunnel.NewTable(packet.MustParseIPv4("10.0.99.1"))
	w.edge.Tunnels.Add(&tunnel.Endpoint{Name: "cloud", Addr: packet.MustParseIPv4("198.51.100.50"), Trusted: true})

	w.server = AttachEcho(serverNode, 2000)
	w.device = AttachCollector(deviceNode)

	// Boot the middleboxes before traffic flows.
	w.net.Clock.RunFor(session.ReadyAt() + time.Millisecond)
	return w
}

func (w *world) httpReq(t *testing.T, sport uint16, body string) []byte {
	t.Helper()
	pkt, err := trace.HTTPRequestPacket(packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("93.184.216.34"), sport, "api.example", "/p", body)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func TestEndToEndRoundTripThroughPVN(t *testing.T) {
	w := newWorld(t)

	for i := 0; i < 10; i++ {
		w.device.Send(w.httpReq(t, uint16(41000+i), "clean request"), uint64(i))
	}
	w.net.Clock.Run()

	if w.device.Received != 10 {
		t.Fatalf("received %d responses, want 10", w.device.Received)
	}
	if w.server.Seen != 10 {
		t.Fatalf("server saw %d requests", w.server.Seen)
	}
	// Path RTT = 2*(5+20)ms plus serialization and middlebox delay.
	mean := w.device.Dist.Mean()
	if mean < 50 || mean > 60 {
		t.Fatalf("mean RTT %.2f ms, want ~50-55", mean)
	}
}

func TestEndToEndLeakBlockedInFlight(t *testing.T) {
	w := newWorld(t)
	w.device.Send(w.httpReq(t, 42000, "password=hunter2"), 1)
	w.device.Send(w.httpReq(t, 42001, "all good"), 2)
	w.net.Clock.Run()

	if w.server.Seen != 1 {
		t.Fatalf("server saw %d requests, want 1 (leak blocked at edge)", w.server.Seen)
	}
	if w.device.Received != 1 {
		t.Fatalf("device got %d responses, want 1", w.device.Received)
	}
	if bytes.Contains(w.server.LastPayload, []byte("hunter2")) {
		t.Fatal("secret reached the server")
	}
	if len(w.session.Alerts()) == 0 {
		t.Fatal("no alert for the blocked leak")
	}
	if w.edge.Dropped != 1 {
		t.Fatalf("edge dropped %d, want 1", w.edge.Dropped)
	}
}

func TestEndToEndTunnelPolicy(t *testing.T) {
	w := newWorld(t)
	var gotOuter []byte
	w.cloud.Handler = func(n *netsim.Node, in *netsim.Port, msg *netsim.Message) {
		gotOuter, _ = msg.Payload.([]byte)
	}
	inner := mkTCP(t, 43000, 993, "MAIL")
	w.device.Send(inner, 1)
	w.net.Clock.Run()

	if gotOuter == nil {
		t.Fatal("cloud host never received the tunneled packet")
	}
	got, _, err := tunnel.Decap(gotOuter)
	if err != nil {
		t.Fatalf("decap: %v", err)
	}
	if !bytes.Equal(got, inner) {
		t.Fatal("inner packet corrupted through tunnel")
	}
	if w.server.Seen != 0 {
		t.Fatal("tunneled flow leaked to the direct path")
	}
}

func mkTCP(t *testing.T, sport, dport uint16, payload string) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAuditorDetectsRealShapingSwitch runs differentiation probes
// through a data plane that actually cheats: the ISP silently installed
// a meter on one destination prefix (cookie 0, invisible to the user's
// manifest). The auditor's rank-sum test over measured per-packet
// delays must flag it, and an honest switch must not be flagged.
func TestAuditorDetectsRealShapingSwitch(t *testing.T) {
	run := func(cheat bool) auditor.DifferentiationResult {
		now := time.Duration(0)
		sw := openflow.NewSwitch("isp-edge", func() time.Duration { return now })
		videoPrefix := packet.MustParseIPv4("203.0.113.0")
		if cheat {
			sw.Table.AddMeter("sneaky", openflow.Meter{RateBps: 1.5e6, BurstBytes: 4 << 10})
			sw.Table.Install(&openflow.FlowEntry{
				Priority: 1000,
				Match:    openflow.Match{Fields: openflow.FieldDstIP, DstIP: videoPrefix, DstBits: 24},
				Actions:  []openflow.Action{openflow.Metered("sneaky"), openflow.Output(1)},
			}, 0)
		}
		sw.Table.Install(&openflow.FlowEntry{Priority: 1, Actions: []openflow.Action{openflow.Output(1)}}, 0)

		// Probe: send 1200-byte packets to a control and a suspect
		// destination; throughput sample = bytes / (interval + delay).
		probe := func(dst packet.IPv4Address, sport uint16) float64 {
			ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: dst, Protocol: packet.IPProtoTCP}
			tcp := &packet.TCP{SrcPort: sport, DstPort: 8080}
			tcp.SetNetworkLayerForChecksum(ip)
			payload := make(packet.Payload, 1200)
			data, _ := packet.SerializeToBytes(ip, tcp, payload)
			const interval = time.Millisecond
			var total time.Duration
			const n = 50
			for i := 0; i < n; i++ {
				d := sw.Process(data, 0)
				total += interval + d.Delay
				now += interval
			}
			return float64(n*len(data)*8) / total.Seconds()
		}
		var control, test []float64
		for i := 0; i < 20; i++ {
			control = append(control, probe(packet.MustParseIPv4("198.51.100.7"), uint16(5000+i)))
			test = append(test, probe(packet.MustParseIPv4("203.0.113.9"), uint16(6000+i)))
		}
		return auditor.DifferentiationTest(control, test)
	}

	if res := run(true); !res.Detected {
		t.Fatalf("real shaping not detected: %+v", res)
	}
	if res := run(false); res.Detected {
		t.Fatalf("honest switch flagged: %+v", res)
	}
}

// TestRealTCPThroughDeployedShaper is the capstone integration: a real
// packet-level TCP transfer crosses the deployed PVN edge switch whose
// user-configured meter shapes it to 1.5 Mbps. The measured goodput must
// land near the configured rate — the whole stack (PVNC compile → flow
// rules → meter → netsim links → TCP dynamics) agreeing with the E4
// story.
func TestRealTCPThroughDeployedShaper(t *testing.T) {
	const shapedCfg = `
pvnc shaped
owner alice
device 10.0.0.5
policy 100 match proto=tcp dport=80 rate=1.5mbps action=forward
policy 0 match any action=forward
`
	net := netsim.NewNetwork(21)
	cn := net.AddNode("client")
	en := net.AddNode("edge")
	sn := net.AddNode("server")
	// Fast links: the meter, not the wire, must be the bottleneck.
	net.Connect(cn, en, netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 1e8, QueueBytes: 4 << 20})
	net.Connect(en, sn, netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 1e8, QueueBytes: 4 << 20})

	vendorKey, _ := pki.GenerateKey(pki.NewDeterministicRand(22))
	vendor := pki.NewRootCA("V", vendorKey, 0, 1<<40)
	network, err := core.NewStandardNetwork(core.NetworkConfig{
		Name: "shaper-isp",
		Provider: &discovery.ProviderPolicy{
			Provider: "shaper-isp", DeployServer: "edge",
			Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
			Supported: map[string]int64{},
		},
		Now:    net.Clock.Now,
		Vendor: vendor, VendorSeed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pvnc.Parse(shapedCfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := &core.Device{
		ID: "dev1", Addr: packet.MustParseIPv4("10.0.0.5"), Config: cfg,
		BudgetMicro: 0, Strategy: discovery.StrategyStrict,
		Vendors: pki.NewTrustStore(vendor.Cert),
	}
	session, err := core.Connect(dev, []*core.AccessNetwork{network})
	if err != nil || session.Mode != core.ModeInNetwork {
		t.Fatalf("connect: %v mode=%v", err, session.Mode)
	}
	Attach(en, network.Server.Switch)

	// Real TCP endpoints on both sides of the PVN.
	client := tcpflow.NewStack(cn, packet.MustParseIPv4("10.0.0.5"), tcpflow.Config{})
	server := tcpflow.NewStack(sn, packet.MustParseIPv4("93.184.216.34"), tcpflow.Config{})
	var done time.Duration = -1
	var got int64
	server.Listen(80, func(c *tcpflow.Conn) {
		c.OnData = func(b []byte) { got += int64(len(b)) }
		c.OnClose = func() { done = net.Clock.Now() }
	})
	const nBytes = 1_500_000
	conn, err := client.Dial(packet.Endpoint{Addr: packet.MustParseIPv4("93.184.216.34"), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() {
		conn.Write(make([]byte, nBytes))
		conn.Close()
	}
	net.Clock.RunUntil(5 * time.Minute)
	if done < 0 {
		t.Fatalf("shaped transfer never completed (got %d bytes, retx=%d timeouts=%d)", got, conn.Retransmits, conn.Timeouts)
	}
	if got != nBytes {
		t.Fatalf("received %d bytes, want %d", got, nBytes)
	}
	goodput := float64(nBytes*8) / done.Seconds()
	// The configured 1.5 Mbps meter must bound goodput; TCP should still
	// achieve a decent share of it.
	if goodput > 1.65e6 {
		t.Fatalf("goodput %.0f bps beats the 1.5 Mbps shaper", goodput)
	}
	if goodput < 0.8e6 {
		t.Fatalf("goodput %.0f bps far below the shaped rate", goodput)
	}
	t.Logf("shaped goodput %.2f Mbps over %.1fs", goodput/1e6, done.Seconds())
}
