package netsim

import (
	"testing"
	"time"
)

// twoNodes builds a-b connected by cfg and returns the network and nodes.
func twoNodes(t *testing.T, cfg LinkConfig) (*Network, *Node, *Node) {
	t.Helper()
	net := NewNetwork(1)
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.Connect(a, b, cfg)
	return net, a, b
}

func TestLinkPropagationDelay(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: 10 * time.Millisecond})
	var arrived time.Duration = -1
	b.Handler = func(n *Node, in *Port, msg *Message) { arrived = net.Clock.Now() }
	a.Port(0).Send(&Message{Size: 100})
	net.Clock.Run()
	if arrived != 10*time.Millisecond {
		t.Fatalf("arrival at %v, want 10ms (propagation only, infinite bandwidth)", arrived)
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	// 1000 bytes at 8000 bps = 8000 bits / 8000 bps = 1s serialization.
	net, a, b := twoNodes(t, LinkConfig{Latency: 0, BandwidthBps: 8000})
	var arrived time.Duration = -1
	b.Handler = func(n *Node, in *Port, msg *Message) { arrived = net.Clock.Now() }
	a.Port(0).Send(&Message{Size: 1000})
	net.Clock.Run()
	if arrived != time.Second {
		t.Fatalf("arrival at %v, want 1s serialization", arrived)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	// Two 1000-byte messages on a 8000 bps link: second finishes at 2s.
	net, a, b := twoNodes(t, LinkConfig{Latency: 0, BandwidthBps: 8000, QueueBytes: 1 << 20})
	var arrivals []time.Duration
	b.Handler = func(n *Node, in *Port, msg *Message) { arrivals = append(arrivals, net.Clock.Now()) }
	a.Port(0).Send(&Message{Size: 1000})
	a.Port(0).Send(&Message{Size: 1000})
	net.Clock.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] != time.Second || arrivals[1] != 2*time.Second {
		t.Fatalf("arrivals %v, want [1s 2s]", arrivals)
	}
}

func TestLinkQueueDrop(t *testing.T) {
	// Tiny queue: the first message occupies the pipeline, the second
	// queues, further sends must drop.
	net, a, b := twoNodes(t, LinkConfig{Latency: 0, BandwidthBps: 8000, QueueBytes: 1500})
	delivered := 0
	b.Handler = func(n *Node, in *Port, msg *Message) { delivered++ }
	ok1 := a.Port(0).Send(&Message{Size: 1000})
	ok2 := a.Port(0).Send(&Message{Size: 1000}) // 2000 > 1500 while first queued
	if !ok1 {
		t.Fatal("first send dropped unexpectedly")
	}
	if ok2 {
		t.Fatal("second send accepted but queue should be full")
	}
	net.Clock.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if a.Port(0).Stats.QueueDrops != 1 {
		t.Fatalf("QueueDrops = %d, want 1", a.Port(0).Stats.QueueDrops)
	}
}

func TestLinkQueueDrainsOverTime(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: 0, BandwidthBps: 8000, QueueBytes: 1500})
	delivered := 0
	b.Handler = func(n *Node, in *Port, msg *Message) { delivered++ }
	a.Port(0).Send(&Message{Size: 1000})
	net.Clock.Run() // drain completely
	if !a.Port(0).Send(&Message{Size: 1000}) {
		t.Fatal("send after drain was dropped")
	}
	net.Clock.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
}

func TestLinkLossRate(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: time.Millisecond, LossRate: 0.5})
	delivered := 0
	b.Handler = func(n *Node, in *Port, msg *Message) { delivered++ }
	const sent = 10000
	for i := 0; i < sent; i++ {
		a.Port(0).Send(&Message{Size: 100})
	}
	net.Clock.Run()
	frac := float64(delivered) / sent
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivery fraction %.3f with 50%% loss, want ~0.5", frac)
	}
	if a.Port(0).Stats.RandomDrops != int64(sent-delivered) {
		t.Fatalf("RandomDrops = %d, want %d", a.Port(0).Stats.RandomDrops, sent-delivered)
	}
}

func TestLinkStatsCounters(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: time.Millisecond})
	b.Handler = func(n *Node, in *Port, msg *Message) {}
	a.Port(0).Send(&Message{Size: 123})
	a.Port(0).Send(&Message{Size: 77})
	net.Clock.Run()
	sa, sb := a.Port(0).Stats, b.Port(0).Stats
	if sa.TxMessages != 2 || sa.TxBytes != 200 {
		t.Fatalf("tx stats = %+v, want 2 msgs / 200 bytes", sa)
	}
	if sb.RxMessages != 2 || sb.RxBytes != 200 {
		t.Fatalf("rx stats = %+v, want 2 msgs / 200 bytes", sb)
	}
}

func TestMessageHopsAndSentAt(t *testing.T) {
	net := NewNetwork(1)
	a := net.AddNode("a")
	m := net.AddNode("m")
	b := net.AddNode("b")
	net.Connect(a, m, LinkConfig{Latency: time.Millisecond})
	net.Connect(m, b, LinkConfig{Latency: time.Millisecond})
	net.ComputeRoutes()
	m.Handler = RouterHandler(nil)
	var got *Message
	b.Handler = func(n *Node, in *Port, msg *Message) { got = msg }

	net.Clock.Schedule(5*time.Millisecond, func() {
		msg := &Message{Size: 10, Src: "a", Dst: "b"}
		a.Port(0).Send(msg)
	})
	net.Clock.Run()
	if got == nil {
		t.Fatal("message never arrived")
	}
	if got.Hops != 2 {
		t.Fatalf("Hops = %d, want 2", got.Hops)
	}
	if got.SentAt != 5*time.Millisecond {
		t.Fatalf("SentAt = %v, want 5ms", got.SentAt)
	}
}

// pathLatency sums the link latency along the computed routes from src
// to dst, or returns -1 when a hop has no route.
func pathLatency(net *Network, src, dst string) time.Duration {
	var total time.Duration
	for cur := net.nodes[src]; cur.ID != dst; {
		p := cur.RouteTo(dst)
		if p == nil {
			return -1
		}
		total += p.cfg.Latency
		cur = p.peer.node
	}
	return total
}

func TestComputeRoutesShortestPath(t *testing.T) {
	// Triangle where the direct a-b edge is slower than a-c-b.
	net := NewNetwork(1)
	a := net.AddNode("a")
	b := net.AddNode("b")
	c := net.AddNode("c")
	net.Connect(a, b, LinkConfig{Latency: 100 * time.Millisecond})
	net.Connect(a, c, LinkConfig{Latency: 10 * time.Millisecond})
	net.Connect(c, b, LinkConfig{Latency: 10 * time.Millisecond})
	net.ComputeRoutes()

	p := a.RouteTo("b")
	if p == nil || p.peer.node.ID != "c" {
		t.Fatalf("route a->b goes via %v, want c", p.peer.node.ID)
	}
	if got := pathLatency(net, "a", "b"); got != 20*time.Millisecond {
		t.Fatalf("pathLatency(a,b) = %v, want 20ms", got)
	}
}

func TestPathLatencyUnreachable(t *testing.T) {
	net := NewNetwork(1)
	a := net.AddNode("a")
	net.AddNode("b")
	net.ComputeRoutes()
	if p := a.RouteTo("b"); p != nil {
		t.Fatalf("disconnected b routed via port %d", p.Index())
	}
	if got := pathLatency(net, "a", "b"); got != -1 {
		t.Fatalf("pathLatency disconnected = %v, want -1", got)
	}
}

func TestRouterHandlerFallback(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: time.Millisecond})
	local := 0
	b.Handler = RouterHandler(func(n *Node, in *Port, msg *Message) { local++ })
	a.Port(0).Send(&Message{Size: 1, Dst: "b"})
	a.Port(0).Send(&Message{Size: 1, Dst: ""}) // empty dst -> local
	net.Clock.Run()
	if local != 2 {
		t.Fatalf("fallback handled %d messages, want 2", local)
	}
}

func TestInjectDeliversLocally(t *testing.T) {
	net := NewNetwork(1)
	a := net.AddNode("a")
	var got *Message
	a.Handler = func(n *Node, in *Port, msg *Message) {
		if in != nil {
			t.Error("injected message has non-nil inbound port")
		}
		got = msg
	}
	a.Inject(&Message{Payload: "hello"})
	net.Clock.Run()
	if got == nil || got.Payload != "hello" {
		t.Fatalf("inject delivered %+v", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	net := NewNetwork(1)
	net.AddNode("x")
	net.AddNode("x")
}

func TestConnectAsym(t *testing.T) {
	net := NewNetwork(1)
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.ConnectAsym(a, b,
		LinkConfig{Latency: 5 * time.Millisecond},
		LinkConfig{Latency: 50 * time.Millisecond})
	var fwd, rev time.Duration
	b.Handler = func(n *Node, in *Port, msg *Message) {
		fwd = net.Clock.Now()
		in.Send(&Message{Size: 1})
	}
	a.Handler = func(n *Node, in *Port, msg *Message) { rev = net.Clock.Now() }
	a.Port(0).Send(&Message{Size: 1})
	net.Clock.Run()
	if fwd != 5*time.Millisecond {
		t.Fatalf("forward arrival %v, want 5ms", fwd)
	}
	if rev-fwd != 50*time.Millisecond {
		t.Fatalf("reverse leg took %v, want 50ms", rev-fwd)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, time.Duration) {
		net, a, b := twoNodes(t, LinkConfig{Latency: time.Millisecond, LossRate: 0.3, Jitter: 500 * time.Microsecond})
		var last time.Duration
		b.Handler = func(n *Node, in *Port, msg *Message) { last = net.Clock.Now() }
		for i := 0; i < 500; i++ {
			a.Port(0).Send(&Message{Size: 64})
		}
		net.Clock.Run()
		return b.Port(0).Stats.RxMessages, last
	}
	rx1, t1 := run()
	rx2, t2 := run()
	if rx1 != rx2 || t1 != t2 {
		t.Fatalf("same seed produced different outcomes: (%d,%v) vs (%d,%v)", rx1, t1, rx2, t2)
	}
}

func TestAccessTopologyRoutes(t *testing.T) {
	top := NewAccessTopology(AccessTopologyConfig{Seed: 1})
	var arrived bool
	top.Server.Handler = func(n *Node, in *Port, msg *Message) { arrived = true }
	top.Device.Port(0).Send(&Message{Size: 100, Src: "device", Dst: "server"})
	top.Net.Clock.Run()
	if !arrived {
		t.Fatal("device->server message never arrived through transit nodes")
	}
	// Path through pvn-host must be far cheaper than through cloud-host.
	inNet := pathLatency(top.Net, "device", "pvn-host")
	cloud := pathLatency(top.Net, "device", "cloud-host")
	if inNet <= 0 || cloud <= 0 {
		t.Fatalf("unexpected path latencies inNet=%v cloud=%v", inNet, cloud)
	}
	if cloud < 2*inNet {
		t.Fatalf("cloud path (%v) should cost far more than in-network path (%v)", cloud, inNet)
	}
}

func TestStarTopology(t *testing.T) {
	net, _, leaves := NewStarTopology(1, 5, LinkConfig{Latency: time.Millisecond})
	got := 0
	leaves[4].Handler = func(n *Node, in *Port, msg *Message) { got++ }
	leaves[0].Port(0).Send(&Message{Size: 1, Dst: "leaf4"})
	net.Clock.Run()
	if got != 1 {
		t.Fatal("leaf0->leaf4 via hub failed")
	}
}

func TestTotalDrops(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: 0, BandwidthBps: 8000, QueueBytes: 1200, LossRate: 0})
	b.Handler = func(n *Node, in *Port, msg *Message) {}
	for i := 0; i < 5; i++ {
		a.Port(0).Send(&Message{Size: 1000})
	}
	net.Clock.Run()
	if st := a.Port(0).Stats; st.QueueDrops == 0 || st.RandomDrops != 0 {
		t.Fatalf("queue drops %d, random drops %d; want some and 0", st.QueueDrops, st.RandomDrops)
	}
}

func TestSetConfigMidSimulation(t *testing.T) {
	net, a, b := twoNodes(t, LinkConfig{Latency: 10 * time.Millisecond})
	var arrivals []time.Duration
	b.Handler = func(n *Node, in *Port, msg *Message) { arrivals = append(arrivals, net.Clock.Now()) }

	a.Port(0).Send(&Message{Size: 10})
	net.Clock.Run()
	// The link degrades (signal fade): later traffic is slower.
	a.Port(0).SetConfig(LinkConfig{Latency: 100 * time.Millisecond})
	net.Clock.Schedule(0, func() { a.Port(0).Send(&Message{Size: 10}) })
	net.Clock.Run()

	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[0] != 10*time.Millisecond {
		t.Fatalf("first arrival %v", arrivals[0])
	}
	if arrivals[1]-arrivals[0] != 100*time.Millisecond {
		t.Fatalf("second leg took %v, want 100ms after reconfig", arrivals[1]-arrivals[0])
	}
	// Routing recomputation picks up new latencies.
	net.ComputeRoutes()
	if got := pathLatency(net, "a", "b"); got != 100*time.Millisecond {
		t.Fatalf("path latency %v after reconfig", got)
	}
}
