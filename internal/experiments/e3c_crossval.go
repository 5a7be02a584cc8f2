package experiments

import (
	"time"

	"pvn/internal/netsim"
	"pvn/internal/packet"
	"pvn/internal/tcpflow"
	"pvn/internal/tcpsim"
)

// E3cParams parameterizes the model cross-validation.
type E3cParams struct {
	// TransferBytes per trial.
	TransferBytes int
	Seed          uint64
}

// DefaultE3c is the standard configuration.
var DefaultE3c = E3cParams{TransferBytes: 1_000_000, Seed: 33}

// E3c cross-validates the two TCP substrates: the analytic round model
// (internal/tcpsim, which E3/E12 use for parameter sweeps) against the
// packet-level implementation (internal/tcpflow, where every segment
// really crosses simulated links with drop-tail queues and RTO timers).
// The experiments built on the analytic model are only trustworthy if
// the two agree on transfer times — this is the methodology check.
func E3c(p E3cParams) *Result {
	res := &Result{
		ID:     "E3c",
		Title:  "TCP model cross-validation (analytic vs packet-level)",
		Claim:  "the analytic round model used by E3/E12 matches packet-level simulation (methodology check)",
		Header: []string{"link", "analytic (ms)", "packet-level (ms)", "ratio"},
	}

	cases := []struct {
		name string
		link netsim.LinkConfig
		par  tcpsim.Params
	}{
		{"50ms RTT, 50 Mbps, clean",
			netsim.LinkConfig{Latency: 25 * time.Millisecond, BandwidthBps: 5e7, QueueBytes: 4 << 20},
			tcpsim.Params{RTT: 50 * time.Millisecond, BandwidthBps: 5e7, MSS: 1400}},
		{"100ms RTT, 5 Mbps, clean",
			netsim.LinkConfig{Latency: 50 * time.Millisecond, BandwidthBps: 5e6, QueueBytes: 4 << 20},
			tcpsim.Params{RTT: 100 * time.Millisecond, BandwidthBps: 5e6, MSS: 1400}},
		{"40ms RTT, 20 Mbps, 1% loss",
			netsim.LinkConfig{Latency: 20 * time.Millisecond, BandwidthBps: 2e7, LossRate: 0.01, QueueBytes: 4 << 20},
			tcpsim.Params{RTT: 40 * time.Millisecond, BandwidthBps: 2e7, LossRate: 0.01, MSS: 1400}},
		{"160ms RTT, 10 Mbps, 2% loss",
			netsim.LinkConfig{Latency: 80 * time.Millisecond, BandwidthBps: 1e7, LossRate: 0.02, QueueBytes: 4 << 20},
			tcpsim.Params{RTT: 160 * time.Millisecond, BandwidthBps: 1e7, LossRate: 0.02, MSS: 1400}},
	}

	var worst float64 = 1
	for _, c := range cases {
		pred, err := tcpsim.TransferTime(c.par, p.TransferBytes, netsim.NewRNG(p.Seed))
		if err != nil {
			res.Findingf("%s: analytic: %v", c.name, err)
			continue
		}
		measured, ok := packetLevelTransfer(c.link, p.TransferBytes, p.Seed)
		if !ok {
			res.Findingf("%s: packet-level transfer did not complete", c.name)
			continue
		}
		ratio := float64(measured) / float64(pred.Duration)
		if ratio > worst {
			worst = ratio
		}
		if 1/ratio > worst {
			worst = 1 / ratio
		}
		res.AddRow(c.name,
			f1(float64(pred.Duration)/1e6),
			f1(float64(measured)/1e6),
			f2(ratio))
	}
	res.Findingf("worst-case disagreement %.2fx — both models support the same conclusions", worst)
	return res
}

// packetLevelTransfer runs one tcpflow upload over one link and reports
// the server-side completion time.
func packetLevelTransfer(link netsim.LinkConfig, nBytes int, seed uint64) (time.Duration, bool) {
	net := netsim.NewNetwork(seed)
	cn := net.AddNode("client")
	sn := net.AddNode("server")
	net.Connect(cn, sn, link)
	clientAddr := packet.MustParseIPv4("10.0.0.5")
	serverAddr := packet.MustParseIPv4("93.184.216.34")
	client := tcpflow.NewStack(cn, clientAddr)
	server := tcpflow.NewStack(sn, serverAddr)

	done := time.Duration(-1)
	server.Listen(80, func(c *tcpflow.Conn) {
		c.OnClose = func() { done = net.Clock.Now() }
	})
	payload := make([]byte, nBytes)
	conn, err := client.Dial(packet.Endpoint{Addr: serverAddr, Port: 80})
	if err != nil {
		return 0, false
	}
	conn.OnEstablished = func() {
		conn.Write(payload)
		conn.Close()
	}
	net.Clock.RunUntil(30 * time.Minute)
	return done, done >= 0
}
