package pvn_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"pvn/internal/dataplane"
	"pvn/internal/experiments"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pcapio"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/reasm"
	"pvn/internal/tcpsim"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

// ---------------------------------------------------------------------------
// Experiment benchmarks: one per entry in EXPERIMENTS.md. Each runs the
// full experiment; the result rows are what EXPERIMENTS.md records. Run
// with -v to see the tables via the companion Example funcs in
// cmd/pvnbench.
// ---------------------------------------------------------------------------

func BenchmarkE1_MiddleboxOverhead(b *testing.B) {
	p := experiments.DefaultE1
	p.Instances = 32
	p.PacketsPerChain = 50
	for i := 0; i < b.N; i++ {
		if res := experiments.E1(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE2_TunnelingOverhead(b *testing.B) {
	p := experiments.DefaultE2
	p.Requests = 20
	p.InterdomainRTTs = []time.Duration{20 * time.Millisecond, 150 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		if res := experiments.E2(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE3_SplitTCP(b *testing.B) {
	p := experiments.DefaultE3
	p.Trials = 5
	for i := 0; i < b.N; i++ {
		if res := experiments.E3(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE3c_TCPModelCrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.E3c(experiments.DefaultE3c); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE3b_SplitTCPLossSweep(b *testing.B) {
	p := experiments.DefaultE3
	p.Trials = 5
	for i := 0; i < b.N; i++ {
		if res := experiments.E3Ablation(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE4_VideoPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.E4(experiments.DefaultE4); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE5_TLSValidation(b *testing.B) {
	p := experiments.DefaultE5
	p.ConnectionsPerClass = 20
	for i := 0; i < b.N; i++ {
		if res := experiments.E5(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE6_DNSValidation(b *testing.B) {
	p := experiments.DefaultE6
	p.Lookups = 60
	for i := 0; i < b.N; i++ {
		if res := experiments.E6(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE7_PIIDetection(b *testing.B) {
	p := experiments.DefaultE7
	p.Requests = 100
	for i := 0; i < b.N; i++ {
		if res := experiments.E7(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE8_Auditor(b *testing.B) {
	p := experiments.DefaultE8
	p.Trials = 10
	for i := 0; i < b.N; i++ {
		if res := experiments.E8(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE9_Discovery(b *testing.B) {
	p := experiments.DefaultE9
	p.Devices = 20
	for i := 0; i < b.N; i++ {
		if res := experiments.E9(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE10_SelectiveRedirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.E10(experiments.DefaultE10); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE11_HostScalability(b *testing.B) {
	p := experiments.DefaultE11
	p.UserCounts = []int{1, 20, 50}
	p.PacketsPerProbe = 500
	for i := 0; i < b.N; i++ {
		if res := experiments.E11(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkE12_Multihoming(b *testing.B) {
	p := experiments.DefaultE12
	p.Flows = 10
	for i := 0; i < b.N; i++ {
		if res := experiments.E12(p); len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// ---------------------------------------------------------------------------
// Data-plane micro-benchmarks: the per-packet costs underlying the
// experiment numbers.
// ---------------------------------------------------------------------------

func buildFrame(b *testing.B) []byte {
	b.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("GET /x HTTP/1.1\r\nHost: h\r\n\r\n"))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkPacketDecode(b *testing.B) {
	data := buildFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.Decode(data, packet.LayerTypeIPv4)
		if p.TCP() == nil {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkPacketSerialize(b *testing.B) {
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	buf := packet.NewBuffer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := packet.Serialize(buf, ip, tcp, packet.Payload("xxxx")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchLookup(b *testing.B) {
	sw := openflow.NewSwitch("bench", nil)
	// A realistic PVN table: ~13 rules from the canonical config.
	cfg, err := pvnc.Parse(`
pvnc bench
owner u
device 10.0.0.5
policy 100 match proto=tcp dport=443 action=forward
policy 90 match proto=tcp dport=80 action=forward
policy 80 match dst=203.0.113.0/24 action=forward
policy 70 match proto=udp dport=53 action=forward
policy 0 match any action=forward
`)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{UpstreamPort: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := range compiled.FlowMods {
		compiled.FlowMods[i].Apply(sw.Table, 0)
	}
	data := buildFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := sw.Process(data, 0); d.Verdict != openflow.VerdictOutput {
			b.Fatal("unexpected verdict")
		}
	}
}

// BenchmarkDataplaneScaling compares the serial switch against the
// sharded pipeline on the same compiled rule set: sub-benchmark "serial"
// is one core calling Switch.Process; "shards=N" submits from parallel
// producers into an N-worker pipeline (Block policy, so every packet is
// processed). One op = one packet, so pkts/sec = 1e9 / (ns/op).
func BenchmarkDataplaneScaling(b *testing.B) {
	install := func(b *testing.B, t *openflow.FlowTable) {
		b.Helper()
		cfg, err := pvnc.Parse(`
pvnc bench
owner u
device 10.0.0.5
policy 100 match proto=tcp dport=443 action=forward
policy 90 match proto=tcp dport=80 action=forward
policy 80 match dst=203.0.113.0/24 action=forward
policy 70 match proto=udp dport=53 action=forward
policy 0 match any action=forward
`)
		if err != nil {
			b.Fatal(err)
		}
		compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{UpstreamPort: 1})
		if err != nil {
			b.Fatal(err)
		}
		for i := range compiled.FlowMods {
			compiled.FlowMods[i].Apply(t, 0)
		}
	}
	// 128 distinct flows so the 5-tuple hash spreads load across shards.
	frames := make([][]byte, 128)
	for i := range frames {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(40000 + i), DstPort: 443}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("GET /x HTTP/1.1\r\nHost: h\r\n\r\n"))
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = data
	}

	b.Run("serial", func(b *testing.B) {
		sw := openflow.NewSwitch("bench", nil)
		install(b, sw.Table)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := sw.Process(frames[i%len(frames)], 0); d.Verdict != openflow.VerdictOutput {
				b.Fatal("unexpected verdict")
			}
		}
	})
	// Aggregate throughput should exceed serial from ~2 shards on a
	// multi-core host; on GOMAXPROCS=1 the sweep only measures pipeline
	// overhead, since workers and producers share one core.
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dp := dataplane.New(dataplane.Config{Shards: shards, Policy: dataplane.Block})
			install(b, dp.Table())
			dp.Start()
			defer dp.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				j := 0
				for pb.Next() {
					dp.Submit(frames[j%len(frames)], 0)
					j++
				}
			})
			dp.Drain()
			b.StopTimer()
			st := dp.Stats().Total()
			if st.Dropped > 0 {
				b.Fatalf("%d drops under Block policy", st.Dropped)
			}
		})
	}
}

func BenchmarkMiddleboxChain4(b *testing.B) {
	now := time.Duration(0)
	rt := middlebox.NewRuntime(func() time.Duration { return now })
	rootKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	root := pki.NewRootCA("R", rootKey, 0, 1<<40)
	mbx.RegisterBuiltins(rt, mbx.Deps{TrustStore: pki.NewTrustStore(root.Cert), NowSeconds: func() int64 { return 0 }})
	var ids []string
	for _, typ := range []string{"classifier", "pii-detect", "tracker-block", "malware-scan"} {
		inst, err := rt.Instantiate("u", typ, nil)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}
	if _, err := rt.BuildChain("u", "c", ids, nil); err != nil {
		b.Fatal(err)
	}
	now = time.Second
	data := buildFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.ExecuteChain("u/c", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeterShape(b *testing.B) {
	m := &openflow.Meter{RateBps: 1.5e6, BurstBytes: 64 << 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Shape(time.Duration(i)*time.Microsecond, 1200)
	}
}

func BenchmarkTCPSimTransfer(b *testing.B) {
	p := tcpsim.Params{RTT: 80 * time.Millisecond, BandwidthBps: 2e6, LossRate: 0.02}
	rng := netsim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tcpsim.TransferTime(p, 1_000_000, rng.Fork()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunnelEncapDecap(b *testing.B) {
	inner := buildFrame(b)
	src := packet.MustParseIPv4("10.0.0.5")
	dst := packet.MustParseIPv4("198.51.100.50")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outer, err := tunnel.Encap(inner, src, dst, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tunnel.Decap(outer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPVNCCompile(b *testing.B) {
	src := `
pvnc bench
owner u
device 10.0.0.5
middlebox t tls-verify
middlebox p pii-detect
chain secure t p
policy 100 match proto=tcp dport=443 via=secure action=forward
policy 0 match any action=forward
`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := pvnc.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pvnc.Compile(cfg, pvnc.CompileOptions{UpstreamPort: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimEventThroughput(b *testing.B) {
	net := netsim.NewNetwork(1)
	a := net.AddNode("a")
	c := net.AddNode("b")
	net.Connect(a, c, netsim.LinkConfig{Latency: time.Millisecond, BandwidthBps: 1e9})
	delivered := 0
	c.Handler = func(n *netsim.Node, in *netsim.Port, msg *netsim.Message) { delivered++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Port(0).Send(&netsim.Message{Size: 1000})
		if i%1024 == 1023 {
			net.Clock.Run()
		}
	}
	net.Clock.Run()
}

func BenchmarkWebPageGeneration(b *testing.B) {
	g := trace.NewWebGen(1)
	for i := 0; i < b.N; i++ {
		if p := g.Page("site.example"); len(p.Objects) == 0 {
			b.Fatal("empty page")
		}
	}
}

func BenchmarkReassemblyInOrder(b *testing.B) {
	seg := make([]byte, 1460)
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	s := reasm.NewStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(uint32(i*len(seg)), seg)
		s.Consume(len(seg))
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	pkt := buildFrame(b)
	w, err := pcapio.NewWriter(io.Discard, pcapio.LinkTypeRaw)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(time.Duration(i), pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWebRender(b *testing.B) {
	box := mbx.NewWebRenderer()
	body := strings.Repeat(`<div class="row"><a href="/l">Text content here</a><script>x()</script></div>`, 50)
	pkt, err := trace.HTTPResponsePacket(
		packet.MustParseIPv4("93.184.216.34"), packet.MustParseIPv4("10.0.0.5"),
		40000, "text/html", []byte(body))
	if err != nil {
		b.Fatal(err)
	}
	rt := middlebox.NewRuntime(func() time.Duration { return time.Second })
	rt.Register(&middlebox.Spec{Type: "r", New: func(map[string]string) (middlebox.Box, error) { return box, nil }})
	rt.Now = func() time.Duration { return 0 }
	inst, _ := rt.Instantiate("u", "r", nil)
	rt.Now = func() time.Duration { return time.Second }
	rt.BuildChain("u", "c", []string{inst.ID}, nil)
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.ExecuteChain("u/c", pkt); err != nil {
			b.Fatal(err)
		}
	}
}
