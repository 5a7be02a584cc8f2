package experiments

import (
	"fmt"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/packet"
)

// E1Params parameterizes the middlebox-overhead experiment.
type E1Params struct {
	// Instances to boot for the instantiation-latency measurement.
	Instances int
	// PacketsPerChain measured per chain length.
	PacketsPerChain int
	// MaxChainLength sweeps chains of 1..MaxChainLength boxes.
	MaxChainLength int
	Seed           uint64
}

// DefaultE1 is the standard configuration.
var DefaultE1 = E1Params{Instances: 64, PacketsPerChain: 200, MaxChainLength: 8, Seed: 1}

// countBox is a minimal middlebox used to isolate runtime overhead.
type countBox struct{ n int64 }

func (c *countBox) Name() string { return "count" }
func (c *countBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	c.n++
	return data, middlebox.VerdictPass, nil
}

// E1 measures the three NFV cost figures the paper cites from ClickOS
// (§3.3 [24]): instantiation latency (claim ~30 ms), per-packet added
// delay (claim ~45 µs/middlebox) and memory per instance (claim ~6 MB).
// It also sweeps chain length, the ablation DESIGN.md calls out: the
// per-packet cost must grow linearly with chain length.
func E1(p E1Params) *Result {
	res := &Result{
		ID:     "E1",
		Title:  "middlebox instantiation, per-packet delay, memory",
		Claim:  "containers instantiate in ~30ms, add ~45us delay, consume ~6MB (paper S3.3, [24])",
		Header: []string{"metric", "n", "mean", "p95", "unit"},
	}

	now := time.Duration(0)
	clock := func() time.Duration { return now }
	rt := middlebox.NewRuntime(clock)
	rt.MemoryCapBytes = 4 << 30
	rt.Register(&middlebox.Spec{Type: "count", New: func(map[string]string) (middlebox.Box, error) {
		return &countBox{}, nil
	}})

	// Instantiation latency: from the Instantiate call to ReadyAt.
	var bootDist netsim.Dist
	memBefore := rt.MemoryUsed()
	var instances []*middlebox.Instance
	for i := 0; i < p.Instances; i++ {
		inst, err := rt.Instantiate("e1", "count", nil)
		if err != nil {
			res.Findingf("instantiate failed at %d: %v", i, err)
			break
		}
		bootDist.AddDuration(inst.ReadyAt - now)
		instances = append(instances, inst)
	}
	memPer := float64(rt.MemoryUsed()-memBefore) / float64(len(instances)) / (1 << 20)
	res.AddRow("instantiation latency", fmt.Sprint(bootDist.N()), f2(bootDist.Mean()), f2(bootDist.Percentile(95)), "ms")
	res.AddRow("memory per instance", fmt.Sprint(len(instances)), f2(memPer), f2(memPer), "MB")

	// Per-packet delay vs chain length.
	now = time.Second // everything booted
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.1"), Dst: packet.MustParseIPv4("10.0.0.2"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 1, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	pkt, err := packet.SerializeToBytes(ip, tcp, packet.Payload("probe"))
	if err != nil {
		res.Findingf("packet build failed: %v", err)
		return res
	}

	var perBox []float64
	for length := 1; length <= p.MaxChainLength && length <= len(instances); length++ {
		ids := make([]string, length)
		for i := 0; i < length; i++ {
			ids[i] = instances[i].ID
		}
		chainName := fmt.Sprintf("len%d", length)
		if _, err := rt.BuildChain("e1", chainName, ids, nil); err != nil {
			res.Findingf("chain build: %v", err)
			continue
		}
		var d netsim.Dist
		for i := 0; i < p.PacketsPerChain; i++ {
			_, delay, err := rt.ExecuteChain("e1/"+chainName, pkt)
			if err != nil {
				res.Findingf("chain exec: %v", err)
				break
			}
			d.Add(float64(delay) / float64(time.Microsecond))
		}
		res.AddRow(fmt.Sprintf("per-packet delay, chain=%d", length),
			fmt.Sprint(d.N()), f2(d.Mean()), f2(d.Percentile(95)), "us")
		perBox = append(perBox, d.Mean()/float64(length))
	}

	// Findings: compare against the paper's cited figures.
	res.Findingf("instantiation mean %.2f ms (claimed ~30 ms)", bootDist.Mean())
	res.Findingf("memory %.2f MB/instance (claimed ~6 MB)", memPer)
	if len(perBox) > 0 {
		res.Findingf("per-middlebox delay %.2f us (claimed ~45 us); linear in chain length: first=%.2f last=%.2f",
			perBox[0], perBox[0], perBox[len(perBox)-1])
	}
	return res
}
