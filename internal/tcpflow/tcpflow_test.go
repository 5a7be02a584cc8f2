package tcpflow

import (
	"bytes"
	"testing"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/packet"
	"pvn/internal/tcpsim"
)

var (
	clientAddr = packet.MustParseIPv4("10.0.0.5")
	serverAddr = packet.MustParseIPv4("93.184.216.34")
)

// pair builds client--server over one configurable link and returns the
// network plus both stacks.
func pair(t *testing.T, link netsim.LinkConfig, seed uint64) (*netsim.Network, *Stack, *Stack) {
	t.Helper()
	net := netsim.NewNetwork(seed)
	cn := net.AddNode("client")
	sn := net.AddNode("server")
	net.Connect(cn, sn, link)
	client := NewStack(cn, clientAddr)
	server := NewStack(sn, serverAddr)
	return net, client, server
}

// transfer runs a full client->server upload of payload and returns the
// received bytes and completion time (from dial to server-side close).
func transfer(t *testing.T, link netsim.LinkConfig, seed uint64, payload []byte) ([]byte, time.Duration, *Conn) {
	t.Helper()
	net, client, server := pair(t, link, seed)

	var received bytes.Buffer
	var doneAt time.Duration = -1
	server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { received.Write(b) }
		c.OnClose = func() { doneAt = net.Clock.Now() }
	})

	conn, err := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() {
		conn.Write(payload)
		conn.Close()
	}
	net.Clock.RunUntil(10 * time.Minute)
	if doneAt < 0 {
		t.Fatalf("transfer never completed: established=%v sent=%d rcvd=%d retx=%d timeouts=%d pending=%d",
			conn.state == stateEstablished || conn.state == stateClosed, conn.BytesSent, received.Len(), conn.Retransmits, conn.Timeouts, net.Clock.Pending())
	}
	return received.Bytes(), doneAt, conn
}

func patterned(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 31)
	}
	return out
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	link := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 1e8}
	payload := []byte("hello over simulated tcp")
	got, doneAt, conn := transfer(t, link, 1, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %q", got)
	}
	// doneAt is the server-side close: SYN (10ms) + SYN-ACK (20ms) +
	// data/FIN arriving at 30ms, plus serialization.
	if doneAt < 25*time.Millisecond || doneAt > 100*time.Millisecond {
		t.Fatalf("completion at %v", doneAt)
	}
	if conn.Retransmits != 0 || conn.Timeouts != 0 {
		t.Fatalf("loss events on clean link: %+v", conn)
	}
	if conn.state != stateClosed {
		t.Fatal("client connection not closed after FIN ack")
	}
}

func TestBulkTransferIntegrity(t *testing.T) {
	link := netsim.LinkConfig{Latency: 20 * time.Millisecond, BandwidthBps: 2e7, QueueBytes: 1 << 20}
	payload := patterned(500_000)
	got, _, _ := transfer(t, link, 2, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk payload corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestLossyLinkRecovers(t *testing.T) {
	link := netsim.LinkConfig{Latency: 20 * time.Millisecond, BandwidthBps: 2e7, LossRate: 0.02, QueueBytes: 1 << 20}
	payload := patterned(200_000)
	got, _, conn := transfer(t, link, 3, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted under loss: got %d want %d bytes", len(got), len(payload))
	}
	if conn.Retransmits == 0 {
		t.Fatal("2% loss produced no retransmissions")
	}
}

func TestHeavyLossStillCompletes(t *testing.T) {
	link := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 1e7, LossRate: 0.15, QueueBytes: 1 << 20}
	// Enough segments (~143) that data losses are statistically certain.
	payload := patterned(200_000)
	got, _, conn := transfer(t, link, 4, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d want %d", len(got), len(payload))
	}
	if conn.Retransmits == 0 {
		t.Fatal("15% loss produced no retransmissions")
	}
	if conn.Timeouts == 0 && conn.FastRecovers == 0 {
		t.Fatal("15% loss produced no recovery events")
	}
}

func TestTinyQueueCausesDropsButCompletes(t *testing.T) {
	// Drop-tail queue far below the BDP forces congestion losses.
	link := netsim.LinkConfig{Latency: 30 * time.Millisecond, BandwidthBps: 5e6, QueueBytes: 8 << 10}
	payload := patterned(300_000)
	got, _, conn := transfer(t, link, 5, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d want %d", len(got), len(payload))
	}
	if conn.Retransmits == 0 {
		t.Fatal("queue overflow produced no retransmissions")
	}
}

func TestBidirectionalConnections(t *testing.T) {
	link := netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 1e8}
	net, client, server := pair(t, link, 6)

	// Server echoes everything back.
	server.Listen(7, func(c *Conn) {
		c.OnData = func(b []byte) { c.Write(b) }
	})
	var echoed bytes.Buffer
	conn, _ := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 7})
	conn.OnData = func(b []byte) { echoed.Write(b) }
	conn.OnEstablished = func() { conn.Write([]byte("ping-pong-payload")) }
	net.Clock.RunUntil(5 * time.Second)
	if echoed.String() != "ping-pong-payload" {
		t.Fatalf("echo %q", echoed.String())
	}
}

func TestNoListenerIgnoresSyn(t *testing.T) {
	link := netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 1e8}
	net, client, server := pair(t, link, 7)
	conn, _ := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 9999})
	net.Clock.RunUntil(3 * time.Second)
	if conn.state == stateEstablished {
		t.Fatal("connected to a closed port")
	}
	if len(server.conns) != 0 {
		t.Fatal("server grew a connection")
	}
}

func TestMultipleConcurrentConnections(t *testing.T) {
	link := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 5e7, QueueBytes: 1 << 20}
	net, client, server := pair(t, link, 8)

	recv := map[uint16]*bytes.Buffer{}
	server.Listen(80, func(c *Conn) {
		buf := &bytes.Buffer{}
		recv[c.remote.Port] = buf
		c.OnData = func(b []byte) { buf.Write(b) }
	})

	payload := patterned(50_000)
	var conns []*Conn
	for i := 0; i < 5; i++ {
		conn, err := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 80})
		if err != nil {
			t.Fatal(err)
		}
		conn.OnEstablished = func() { conn.Write(payload); conn.Close() }
		conns = append(conns, conn)
	}
	net.Clock.RunUntil(time.Minute)
	if len(recv) != 5 {
		t.Fatalf("server saw %d connections", len(recv))
	}
	for port, buf := range recv {
		if !bytes.Equal(buf.Bytes(), payload) {
			t.Fatalf("connection from port %d corrupted (%d bytes)", port, buf.Len())
		}
	}
}

// TestCrossValidationAgainstTcpsim: the packet-level implementation and
// the analytic round model must agree on transfer time within a small
// factor on clean links, and on the ordering of configurations
// generally — this is what lets E3's analytic results stand in for
// packet-level truth.
func TestCrossValidationAgainstTcpsim(t *testing.T) {
	cases := []struct {
		name string
		link netsim.LinkConfig
		par  tcpsim.Params
	}{
		{"fast clean", netsim.LinkConfig{Latency: 25 * time.Millisecond, BandwidthBps: 5e7, QueueBytes: 4 << 20},
			tcpsim.Params{RTT: 50 * time.Millisecond, BandwidthBps: 5e7, MSS: 1400}},
		{"slow clean", netsim.LinkConfig{Latency: 50 * time.Millisecond, BandwidthBps: 5e6, QueueBytes: 4 << 20},
			tcpsim.Params{RTT: 100 * time.Millisecond, BandwidthBps: 5e6, MSS: 1400}},
	}
	const bytesToSend = 1_000_000
	var measured []float64
	for _, c := range cases {
		payload := patterned(bytesToSend)
		_, doneAt, _ := transfer(t, c.link, 9, payload)
		pred, err := tcpsim.TransferTime(c.par, bytesToSend, netsim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(doneAt) / float64(pred.Duration)
		measured = append(measured, float64(doneAt))
		t.Logf("%s: packet-level %v, analytic %v, ratio %.2f", c.name, doneAt, pred.Duration, ratio)
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("%s: packet-level %v vs analytic %v (ratio %.2f) — models diverge",
				c.name, doneAt, pred.Duration, ratio)
		}
	}
	// Ordering: the slower configuration is slower in both models.
	if measured[1] <= measured[0] {
		t.Fatal("slow link not slower at packet level")
	}
}

func TestEndpointAccessors(t *testing.T) {
	link := netsim.LinkConfig{Latency: time.Millisecond, BandwidthBps: 1e8}
	net, client, server := pair(t, link, 30)
	server.Listen(80, func(c *Conn) {})
	conn, err := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	net.Clock.RunUntil(time.Second)
	if conn.local.Addr != clientAddr || conn.remote.Port != 80 {
		t.Fatalf("endpoints %v -> %v", conn.local, conn.remote)
	}
}
