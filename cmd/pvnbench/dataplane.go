package main

// The dataplane scaling entry: a self-contained sweep of the inline
// path (Switch.Process on the caller's goroutine) and the pipeline over
// the canonical pvnc rule set (chain-free, so its packets finish in
// Submit), of the pipeline over a chain-bearing one (HTTP GETs through
// pii-detect + tracker-block on one shared middlebox.Runtime — what
// every real PVNC pays, and what crosses to the shard workers), of the
// pipeline's miss path (a thousand subscribers' rules under flows that
// never return), and of its quiescence path (short bursts from one
// producer, each ended by Drain, as a session's burst is, back to back
// and with the producer parked between them), reporting ops/sec, CPU
// ns per packet (the process's user+system time over the timed pass,
// which a 2-vCPU machine can compare where wall time cannot),
// allocs/op and latency percentiles per configuration. Its JSON
// artifact (BENCH_DATAPLANE.json) is the committed baseline `make
// bench-gate` diffs against, so fast-path regressions (a new per-packet
// allocation, a serialization bottleneck) fail CI instead of landing
// silently.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pvn/internal/dataplane"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pvnc"
)

// dataplaneRow is one configuration's measurement.
type dataplaneRow struct {
	Config    string  `json:"config"`
	Packets   int64   `json:"packets"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	CPUNsOp   float64 `json:"cpu_ns_per_op"`
	AllocsOp  float64 `json:"allocs_per_op"`
	P50Us     float64 `json:"p50_us,omitempty"`
	P99Us     float64 `json:"p99_us,omitempty"`
}

// dataplaneArtifact is the whole sweep: what BENCH_DATAPLANE.json holds.
type dataplaneArtifact struct {
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Rows       []dataplaneRow `json:"rows"`
}

const dataplaneRules = `
pvnc bench
owner u
device 10.0.0.5
policy 100 match proto=tcp dport=443 action=forward
policy 90 match proto=tcp dport=80 action=forward
policy 80 match dst=203.0.113.0/24 action=forward
policy 70 match proto=udp dport=53 action=forward
policy 0 match any action=forward
`

func installDataplaneRules(t *openflow.FlowTable) error {
	cfg, err := pvnc.Parse(dataplaneRules)
	if err != nil {
		return err
	}
	compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{UpstreamPort: 1})
	if err != nil {
		return err
	}
	t.InstallAll(compiled.Entries(), 0)
	return nil
}

func dataplaneFrames() ([][]byte, error) {
	frames := make([][]byte, 128)
	for i := range frames {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(40000 + i), DstPort: 443}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("GET /x HTTP/1.1\r\nHost: h\r\n\r\n"))
		if err != nil {
			return nil, err
		}
		frames[i] = data
	}
	return frames, nil
}

// measure wraps one configuration run: warm-up, then a timed,
// allocation-counted pass over n packets.
func measure(config string, n int64, warm, run func(count int64)) dataplaneRow {
	warm(min(n/10, 10_000))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	run(n)
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	row := dataplaneRow{
		Config:   config,
		Packets:  n,
		NsPerOp:  float64(wall.Nanoseconds()) / float64(n),
		CPUNsOp:  float64(cpu.Nanoseconds()) / float64(n),
		AllocsOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
	if wall > 0 {
		row.OpsPerSec = float64(n) / wall.Seconds()
	}
	return row
}

// runDataplaneBench executes the sweep. One op = one packet through the
// full decode/lookup/action path.
func runDataplaneBench(quick bool) (*dataplaneArtifact, error) {
	frames, err := dataplaneFrames()
	if err != nil {
		return nil, err
	}
	n := int64(300_000)
	if quick {
		n = 60_000
	}
	art := &dataplaneArtifact{
		ID:         "DATAPLANE",
		Title:      "dataplane: inline Switch.Process vs the pipeline (chain work sharded)",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Inline: one goroutine calling Switch.Process, the workers' code
	// with no ring in front of it.
	sw := openflow.NewSwitch("bench", nil)
	if err := installDataplaneRules(sw.Table); err != nil {
		return nil, err
	}
	inline := func(count int64) {
		for i := int64(0); i < count; i++ {
			if d := sw.Process(frames[i%int64(len(frames))], 0); d.Verdict != openflow.VerdictOutput {
				panic("pvnbench: unexpected inline verdict")
			}
		}
	}
	art.Rows = append(art.Rows, measure("inline", n, inline, inline))

	// The pipeline as bench wires it (zero-value shard count) under one
	// producer: the rule set runs no chain, so every packet finishes in
	// Submit and the row is the pipeline's cost over Switch.Process.
	dp := dataplane.New(dataplane.Config{Policy: dataplane.Block})
	if err := installDataplaneRules(dp.Table()); err != nil {
		return nil, err
	}
	row, err := measurePipeline("pipeline", 1, n, 0, 0, dp, cycle(frames))
	if err != nil {
		return nil, err
	}
	if st := dp.Stats().Total(); st.Inline != st.Processed {
		return nil, fmt.Errorf("pvnbench: %d of %d chain-free packets finished in Submit", st.Inline, st.Processed)
	}
	art.Rows = append(art.Rows, row)

	// The chain-bearing rule set: every shard executes on one shared
	// runtime, as pvnd wires it.
	for _, shards := range []int{1, 2} {
		var outputs atomic.Int64
		dp, chainFrames, err := chainPipeline(shards, &outputs)
		if err != nil {
			return nil, err
		}
		row, err := measurePipeline(fmt.Sprintf("chain shards=%d", shards), shards, n/4, 0, 0, dp, cycle(chainFrames))
		if err != nil {
			return nil, err
		}
		if sent := dp.Stats().Total().Processed; outputs.Load() != sent {
			return nil, fmt.Errorf("pvnbench: %d of %d clean GETs came out of the chain at shards=%d", outputs.Load(), sent, shards)
		}
		art.Rows = append(art.Rows, row)
	}

	// The miss path: what a packet costs when the flow cache has never
	// seen its flow, at a subscriber count where a walk over everyone's
	// rules would dominate.
	for _, shards := range []int{1, 2} {
		dp, err := missPipeline(shards)
		if err != nil {
			return nil, err
		}
		row, err := measurePipeline(fmt.Sprintf("miss shards=%d", shards), shards, n, 0, 0, dp, missFrame)
		if err != nil {
			return nil, err
		}
		// Three packets in four of a subscriber's flow hit the cache;
		// a stranger's never do.
		st := dp.Stats().Total()
		strangers := st.Processed / (4 * missStrangerEvery) * 4
		if st.PacketIns != strangers || st.Outputs != st.Processed-strangers || st.CacheHits != st.Outputs/4*3 {
			return nil, fmt.Errorf("pvnbench: miss mix at shards=%d: %d processed, %d punted, %d forwarded, %d cache hits",
				shards, st.Processed, st.PacketIns, st.Outputs, st.CacheHits)
		}
		art.Rows = append(art.Rows, row)
	}

	// The quiescence path: what a packet costs when every burstPackets
	// of them end in a Drain, so the wait for the last packet to retire
	// and the drainer's wake-up are paid once per burst. Back to back,
	// the workers never go idle; with the producer parked for
	// burstIdle between bursts, as a session's Connect parks it, every
	// burst starts on an idle process and its Drain must wake one.
	bursts, err := burstFrames()
	if err != nil {
		return nil, err
	}
	for _, idle := range []time.Duration{0, burstIdle} {
		for _, shards := range []int{1, 2} {
			dp := dataplane.New(dataplane.Config{Shards: shards, Policy: dataplane.Block})
			if err := installDataplaneRules(dp.Table()); err != nil {
				return nil, err
			}
			config := fmt.Sprintf("burst shards=%d", shards)
			if idle > 0 {
				config = fmt.Sprintf("burst idle shards=%d", shards)
			}
			row, err := measurePipeline(config, shards, n, burstPackets, idle, dp, cycle(bursts))
			if err != nil {
				return nil, err
			}
			art.Rows = append(art.Rows, row)
		}
	}
	return art, nil
}

// A burst is burstPackets forty-byte segments over burstFlows flows,
// the shape of the burst bench's attach_churn sends after every attach.
// burstIdle is how long the idle rows park the producer between bursts.
const (
	burstPackets = 256
	burstFlows   = 64
	burstIdle    = 200 * time.Microsecond
)

// burstFrames builds one forty-byte TCP segment (headers only) for each
// burst flow, to a port the canonical rule set forwards.
func burstFrames() ([][]byte, error) {
	frames := make([][]byte, burstFlows)
	for i := range frames {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(30000 + i), DstPort: 443}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp)
		if err != nil {
			return nil, err
		}
		frames[i] = data
	}
	return frames, nil
}

// cycle serves frames round-robin.
func cycle(frames [][]byte) func(int64, []byte) []byte {
	return func(i int64, _ []byte) []byte { return frames[i%int64(len(frames))] }
}

// measurePipeline starts dp, pumps n frames through it and stops it.
// With burst zero, min(GOMAXPROCS, producers) producers share each pass
// and one Drain ends it; otherwise one producer Drains after every burst
// frames and then sleeps for idle, which the row's time leaves out.
// frame returns the i'th frame of the run, counted across
// warm-up and measurement, and may build it in the scratch buffer it is
// handed (Submit copies). A drop under the Block policy is an error.
func measurePipeline(config string, producers int, n, burst int64, idle time.Duration, dp *dataplane.Pipeline, frame func(i int64, scratch []byte) []byte) (dataplaneRow, error) {
	dp.Start()
	producers = min(runtime.GOMAXPROCS(0), producers)
	var sent int64
	var parked time.Duration // of the latest pump
	pump := func(count int64) {
		base := sent
		sent += count
		parked = 0
		if burst > 0 {
			scratch := make([]byte, 0, 64)
			for i := int64(0); i < count; i++ {
				dp.Submit(frame(base+i, scratch), 0)
				if (i+1)%burst == 0 {
					dp.Drain()
					if idle > 0 {
						start := time.Now()
						time.Sleep(idle)
						parked += time.Since(start)
					}
				}
			}
			dp.Drain()
			return
		}
		var wg sync.WaitGroup
		for pr := 0; pr < producers; pr++ {
			wg.Add(1)
			go func(pr int) {
				defer wg.Done()
				scratch := make([]byte, 0, 64)
				for i := int64(pr); i < count; i += int64(producers) {
					dp.Submit(frame(base+i, scratch), 0)
				}
			}(pr)
		}
		wg.Wait()
		dp.Drain()
	}
	row := measure(config, n, pump, pump)
	if parked > 0 {
		busy := time.Duration(row.NsPerOp*float64(n)) - parked
		row.NsPerOp = float64(busy.Nanoseconds()) / float64(n)
		row.OpsPerSec = float64(n) / busy.Seconds()
	}
	dist := dp.LatencyDist()
	if dist.N() > 0 {
		row.P50Us = dist.Percentile(50)
		row.P99Us = dist.Percentile(99)
	}
	dp.Stop()
	if st := dp.Stats().Total(); st.Dropped > 0 {
		return row, fmt.Errorf("pvnbench: %d drops under Block policy at %s", st.Dropped, config)
	}
	return row, nil
}

// chainOwners is how many subscribers the chain-bearing rule set
// serves: enough that two workers rarely hold the same owner's batch.
const chainOwners = 16

// chainPipeline builds a pipeline whose port-80 traffic crosses each
// owner's pii-detect + tracker-block chain on one shared runtime, and
// the clean ~800-byte GETs to send through it. outputs counts forwarded
// packets, so the caller can tell that every GET came out.
func chainPipeline(shards int, outputs *atomic.Int64) (*dataplane.Pipeline, [][]byte, error) {
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Load()) }
	rt := middlebox.NewRuntime(now)
	mbx.RegisterBuiltins(rt, mbx.Deps{})
	dp := dataplane.New(dataplane.Config{
		Shards: shards, Policy: dataplane.Block, Chains: rt, Now: now,
		OnOutput: func(uint16, []byte) { outputs.Add(1) },
	})
	filler := strings.Repeat("abcdefghij klmnop; ", 35)
	var frames [][]byte
	for o := 0; o < chainOwners; o++ {
		owner := fmt.Sprintf("u%d", o)
		dev := packet.IPv4Address{10, 0, 1, byte(o + 1)}
		pii, err := rt.Instantiate(owner, "pii-detect", map[string]string{"mode": "block", "secrets": fmt.Sprintf("secret-of-%s", owner)})
		if err != nil {
			return nil, nil, err
		}
		trk, err := rt.Instantiate(owner, "tracker-block", map[string]string{"domains": "ads.example,tracker.net"})
		if err != nil {
			return nil, nil, err
		}
		if _, err := rt.BuildChain(owner, "secure", []string{pii.ID, trk.ID}, []packet.IPv4Address{dev}); err != nil {
			return nil, nil, err
		}
		dp.Table().Install(&openflow.FlowEntry{
			Priority: 100,
			Match: openflow.Match{Fields: openflow.FieldSrcIP | openflow.FieldProto | openflow.FieldDstPort,
				SrcIP: dev, SrcBits: 32, Proto: packet.IPProtoTCP, DstPort: 80},
			Actions: []openflow.Action{openflow.ToMiddlebox(owner + "/secure"), openflow.Output(1)},
		}, 0)
		for f := 0; f < 8; f++ {
			ip := &packet.IPv4{Src: dev, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
			tcp := &packet.TCP{SrcPort: uint16(40000 + f), DstPort: 80}
			tcp.SetNetworkLayerForChecksum(ip)
			get := &packet.HTTP{IsRequest: true, Method: "GET", Path: fmt.Sprintf("/story/%d", f), Headers: []packet.HTTPHeader{
				{Name: "Host", Value: "news.example"}, {Name: "Cookie", Value: filler}}}
			data, err := packet.SerializeToBytes(ip, tcp, get)
			if err != nil {
				return nil, nil, err
			}
			frames = append(frames, data)
		}
	}
	clock.Store(int64(time.Second)) // past every instance's boot
	return dp, frames, nil
}

const (
	// missOwners subscribers with the six rules missRules compiles to
	// each: the resident rule count of bench's flow_churn.
	missOwners = 1000
	// Every missStrangerEvery'th flow comes from an address no
	// subscriber owns: it matches nothing, is never memoized, and pays
	// the lookup on each of its packets.
	missStrangerEvery = 16
)

const missRules = `
pvnc miss-%d
owner u%d
device %s
policy 100 match proto=tcp dport=80 action=forward
policy 90 match proto=tcp dport=443 action=forward
policy 0 match any action=forward
`

func missOwnerAddr(o int64) packet.IPv4Address {
	return packet.IPv4Address{10, 16, byte(o >> 8), byte(o)}
}

// missPipeline builds a chain-free pipeline holding missOwners compiled
// deployments.
func missPipeline(shards int) (*dataplane.Pipeline, error) {
	dp := dataplane.New(dataplane.Config{Shards: shards, Policy: dataplane.Block})
	for o := int64(0); o < missOwners; o++ {
		cfg, err := pvnc.Parse(fmt.Sprintf(missRules, o, o, missOwnerAddr(o)))
		if err != nil {
			return nil, err
		}
		compiled, err := pvnc.Compile(cfg, pvnc.CompileOptions{Cookie: uint64(o + 1), UpstreamPort: 1})
		if err != nil {
			return nil, err
		}
		dp.Table().InstallAll(compiled.Entries(), 0)
	}
	return dp, nil
}

// missFrame builds packet i of the miss workload: 40-byte TCP segments
// in flows of four packets whose 5-tuple never comes back, so one
// packet in four pays decode, lookup and a cache insert. Only the IPv4
// header checksum is kept valid; the decoder checks no other.
func missFrame(i int64, scratch []byte) []byte {
	flow := i / 4
	src := missOwnerAddr(flow % missOwners)
	if flow%missStrangerEvery == missStrangerEvery-1 {
		src = packet.IPv4Address{172, 16, byte(flow >> 8), byte(flow)}
	}
	b := append(scratch[:0], 0x45, 0, 0, 40, 0, 0, 0, 0, 64, packet.IPProtoTCP, 0, 0)
	b = append(append(b, src[:]...), 93, 184, 216, 34)
	b = binary.BigEndian.AppendUint16(b, uint16(1024+flow/missOwners)) // at most one flow per owner and source port
	b = binary.BigEndian.AppendUint16(b, []uint16{80, 443, 8080}[flow%3])
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 5<<4, 0x10, 0xff, 0xff, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(b[10:12], packet.Checksum(b[:20]))
	return b
}

// String renders the sweep as the usual pvnbench table.
func (a *dataplaneArtifact) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (GOMAXPROCS=%d)\n", a.ID, a.Title, a.GoMaxProcs)
	fmt.Fprintf(&b, "%-20s %12s %14s %12s %12s %10s %10s\n", "config", "ns/op", "pkts/sec", "cpu ns/op", "allocs/op", "p50 µs", "p99 µs")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-20s %12.1f %14.0f %12.1f %12.3f %10.1f %10.1f\n",
			r.Config, r.NsPerOp, r.OpsPerSec, r.CPUNsOp, r.AllocsOp, r.P50Us, r.P99Us)
	}
	return b.String()
}

// writeDataplaneJSON records the sweep under dir/BENCH_DATAPLANE.json.
func writeDataplaneJSON(dir string, art *dataplaneArtifact) error {
	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/BENCH_DATAPLANE.json", append(blob, '\n'), 0o644)
}

// processCPU is the user+system time this process has used so far, from
// its own resource counters.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
