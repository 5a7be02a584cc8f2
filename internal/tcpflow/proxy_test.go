package tcpflow

import (
	"bytes"
	"testing"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/packet"
)

var proxyAddr = packet.MustParseIPv4("10.99.0.1")

// splitWorld builds client --lastMile-- proxy --backbone-- server with
// TCP stacks on all three nodes and a split proxy in the middle. The
// proxy's RoutePort steers packets per destination.
func splitWorld(t *testing.T, lastMile, backbone netsim.LinkConfig, seed uint64) (*netsim.Network, *Stack, *Stack, *Proxy) {
	t.Helper()
	net := netsim.NewNetwork(seed)
	cn := net.AddNode("client")
	pn := net.AddNode("proxy")
	sn := net.AddNode("server")
	net.Connect(cn, pn, lastMile) // proxy port 0 faces the client
	net.Connect(pn, sn, backbone) // proxy port 1 faces the server

	client := NewStack(cn, clientAddr)
	server := NewStack(sn, serverAddr)
	proxyStack := NewStack(pn, proxyAddr)
	proxyStack.RoutePort = func(remote packet.IPv4Address) int {
		if remote == serverAddr {
			return 1
		}
		return 0
	}
	proxy := NewProxy(proxyStack, 8080, packet.Endpoint{Addr: serverAddr, Port: 80})
	return net, client, server, proxy
}

// uploadVia runs a client upload either direct (two-hop chain without
// termination) or via the split proxy, returning completion time.
func uploadVia(t *testing.T, split bool, lastMile, backbone netsim.LinkConfig, seed uint64, payload []byte) time.Duration {
	t.Helper()
	if split {
		net, client, server, _ := splitWorld(t, lastMile, backbone, seed)
		var done time.Duration = -1
		var got bytes.Buffer
		server.Listen(80, func(c *Conn) {
			c.OnData = func(b []byte) { got.Write(b) }
			c.OnClose = func() { done = net.Clock.Now() }
		})
		conn, err := client.Dial(packet.Endpoint{Addr: proxyAddr, Port: 8080})
		if err != nil {
			t.Fatal(err)
		}
		conn.OnEstablished = func() { conn.Write(payload); conn.Close() }
		net.Clock.RunUntil(30 * time.Minute)
		if done < 0 {
			t.Fatalf("split transfer never completed (%d bytes relayed)", got.Len())
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("split payload corrupted: %d bytes", got.Len())
		}
		return done
	}

	// Direct: same three nodes but the middle one just forwards packets
	// (no TCP termination), so one end-to-end connection crosses both
	// links.
	net := netsim.NewNetwork(seed)
	cn := net.AddNode("client")
	fn := net.AddNode("fwd")
	sn := net.AddNode("server")
	net.Connect(cn, fn, lastMile)
	net.Connect(fn, sn, backbone)
	fn.Handler = func(n *netsim.Node, in *netsim.Port, msg *netsim.Message) {
		out := 1 - in.Index() // two ports: bounce to the other side
		n.Port(out).Send(&netsim.Message{Size: msg.Size, Payload: msg.Payload, Src: msg.Src})
	}
	client := NewStack(cn, clientAddr)
	server := NewStack(sn, serverAddr)
	var done time.Duration = -1
	var got bytes.Buffer
	server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
		c.OnClose = func() { done = net.Clock.Now() }
	})
	conn, err := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { conn.Write(payload); conn.Close() }
	net.Clock.RunUntil(30 * time.Minute)
	if done < 0 {
		t.Fatal("direct transfer never completed")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("direct payload corrupted: %d bytes", got.Len())
	}
	return done
}

func TestProxyRelaysIntact(t *testing.T) {
	lastMile := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 2e7, QueueBytes: 1 << 20}
	backbone := netsim.LinkConfig{Latency: 40 * time.Millisecond, BandwidthBps: 1e8, QueueBytes: 1 << 20}
	payload := patterned(150_000)
	done := uploadVia(t, true, lastMile, backbone, 11, payload)
	if done <= 0 {
		t.Fatal("no completion")
	}
}

func TestProxyEchoBothDirections(t *testing.T) {
	lastMile := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 2e7, QueueBytes: 1 << 20}
	backbone := netsim.LinkConfig{Latency: 40 * time.Millisecond, BandwidthBps: 1e8, QueueBytes: 1 << 20}
	net, client, server, proxy := splitWorld(t, lastMile, backbone, 12)
	server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { c.Write(b) } // echo
	})
	var echoed bytes.Buffer
	conn, _ := client.Dial(packet.Endpoint{Addr: proxyAddr, Port: 8080})
	conn.OnData = func(b []byte) { echoed.Write(b) }
	conn.OnEstablished = func() { conn.Write([]byte("through-the-proxy")) }
	net.Clock.RunUntil(time.Minute)
	if echoed.String() != "through-the-proxy" {
		t.Fatalf("echo %q", echoed.String())
	}
	if proxy.Connections != 1 || proxy.BytesRelayed == 0 {
		t.Fatalf("proxy stats %+v", proxy)
	}
}

// TestPacketLevelSplitBeatsDirect reproduces E3's headline at packet
// level: on a lossy last mile + long clean backbone, terminating TCP at
// the proxy finishes the same upload materially faster than one
// end-to-end connection.
func TestPacketLevelSplitBeatsDirect(t *testing.T) {
	lastMile := netsim.LinkConfig{Latency: 15 * time.Millisecond, BandwidthBps: 2e7, LossRate: 0.02, QueueBytes: 1 << 20}
	backbone := netsim.LinkConfig{Latency: 80 * time.Millisecond, BandwidthBps: 2e8, QueueBytes: 4 << 20}
	payload := patterned(500_000)

	direct := uploadVia(t, false, lastMile, backbone, 13, payload)
	split := uploadVia(t, true, lastMile, backbone, 13, payload)
	t.Logf("direct %v, split %v (%.2fx)", direct, split, float64(direct)/float64(split))
	if float64(direct) < 1.2*float64(split) {
		t.Fatalf("split (%v) not materially faster than direct (%v)", split, direct)
	}
}
