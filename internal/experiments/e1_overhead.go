package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pvn/internal/dataplane"
	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
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
	// DataplanePackets measures serial-vs-sharded chain throughput
	// (0 disables the section).
	DataplanePackets int
	// DataplaneShards is the worker count for the sharded run (0 =
	// min(4, GOMAXPROCS)).
	DataplaneShards int
	// Timing is the elapsed-time source for the dataplane throughput
	// section. Nil = deterministic SimStopwatch; pass WallStopwatch for
	// real measurement (pvnbench -wallclock).
	Timing Stopwatch
	Seed   uint64
}

// DefaultE1 is the standard configuration.
var DefaultE1 = E1Params{Instances: 64, PacketsPerChain: 200, MaxChainLength: 8, DataplanePackets: 8000, Seed: 1}

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

	// Parallel dataplane: the same chain workload executed by the sharded
	// worker pool over one shared runtime, versus one core driving the
	// runtime directly.
	if p.DataplanePackets > 0 {
		shards := p.DataplaneShards
		if shards <= 0 {
			shards = 4
			if n := runtime.GOMAXPROCS(0); n < shards {
				shards = n
			}
		}
		serialKpps, shardedKpps := e1Dataplane(p.DataplanePackets, shards, timing(p.Timing))
		res.AddRow("serial chain throughput", fmt.Sprint(p.DataplanePackets), f1(serialKpps), f1(serialKpps), "kpkt/s")
		res.AddRow(fmt.Sprintf("sharded chain throughput, %d workers", shards),
			fmt.Sprint(p.DataplanePackets), f1(shardedKpps), f1(shardedKpps), "kpkt/s")
		if isWallclock(p.Timing) {
			res.Findingf("dataplane chain throughput: %.0f kpkt/s serial -> %.0f kpkt/s with %d workers (one shared runtime)",
				serialKpps, shardedKpps, shards)
		} else {
			res.Findingf("simclock timing: throughput cells are synthetic placeholders; run pvnbench -wallclock for measured kpkt/s")
		}
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

// e1ChainRuntime builds one middlebox runtime hosting a single countBox
// chain "e1/c".
func e1ChainRuntime() *middlebox.Runtime {
	rt := middlebox.NewRuntime(nil)
	rt.Register(&middlebox.Spec{Type: "count", New: func(map[string]string) (middlebox.Box, error) {
		return &countBox{}, nil
	}})
	inst, err := rt.Instantiate("e1", "count", nil)
	if err != nil {
		panic(err)
	}
	if _, err := rt.BuildChain("e1", "c", []string{inst.ID}, nil); err != nil {
		panic(err)
	}
	rt.Now = func() time.Duration { return time.Second } // booted
	return rt
}

// e1Frames builds the probe traffic: packets spread over 128 flows so
// the 5-tuple hash distributes them across shards.
func e1Frames(n int) [][]byte {
	frames := make([][]byte, 0, 128)
	for i := 0; i < 128; i++ {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.1"), Dst: packet.MustParseIPv4("10.0.0.2"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(40000 + i), DstPort: 80}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("probe"))
		if err != nil {
			panic(err)
		}
		frames = append(frames, data)
	}
	_ = n
	return frames
}

// e1Dataplane measures chain-inclusive packet throughput (kpkt/s) on
// the serial switch path versus the sharded pipeline, each over its own
// runtime. Elapsed time flows through sw so the default run is
// deterministic.
func e1Dataplane(packets, shards int, sw Stopwatch) (serialKpps, shardedKpps float64) {
	frames := e1Frames(packets)
	chainRule := func(t *openflow.FlowTable) {
		t.Install(&openflow.FlowEntry{
			Priority: 10,
			Actions:  []openflow.Action{openflow.ToMiddlebox("e1/c"), openflow.Output(1)},
		}, 0)
	}

	serial := openflow.NewSwitch("e1-serial", nil)
	serial.Chains = e1ChainRuntime()
	chainRule(serial.Table)
	stop := sw.Start()
	for i := 0; i < packets; i++ {
		serial.Process(frames[i%len(frames)], 0)
	}
	serialKpps = float64(packets) / stop(packets).Seconds() / 1e3

	dp := dataplane.New(dataplane.Config{
		Shards: shards,
		Policy: dataplane.Block, // throughput probe: backpressure, not drops
		Chains: e1ChainRuntime(),
	})
	chainRule(dp.Table())
	dp.Start()
	stop = sw.Start()
	for i := 0; i < packets; i++ {
		dp.Submit(frames[i%len(frames)], 0)
	}
	dp.Drain()
	shardedKpps = float64(packets) / stop(packets).Seconds() / 1e3
	dp.Stop()
	return serialKpps, shardedKpps
}
