// Command pvnbench runs the paper-claim reproduction experiments and
// prints their result tables — the same data EXPERIMENTS.md records.
//
// Usage:
//
//	pvnbench             # run every experiment
//	pvnbench -exp E3,E5  # run a subset
//	pvnbench -list       # list experiments
//	pvnbench -quick      # smaller parameters (CI-sized)
//	pvnbench -ab HEAD    # A/B bench pairs: HEAD against the working tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pvn/internal/experiments"
)

// experiment binds an ID to its runner at the selected scale.
type experiment struct {
	id    string
	title string
	run   func(quick bool) *experiments.Result
}

var all = []experiment{
	{"E1", "middlebox instantiation/delay/memory", func(q bool) *experiments.Result {
		p := experiments.DefaultE1
		if q {
			p.Instances, p.PacketsPerChain = 16, 50
		}
		return experiments.E1(p)
	}},
	{"E2", "in-network vs tunneled latency", func(q bool) *experiments.Result {
		p := experiments.DefaultE2
		if q {
			p.Requests = 20
			p.InterdomainRTTs = []time.Duration{20 * time.Millisecond, 150 * time.Millisecond}
		}
		return experiments.E2(p)
	}},
	{"E3", "split-TCP proxy vs direct", func(q bool) *experiments.Result {
		p := experiments.DefaultE3
		if q {
			p.Trials = 8
		}
		return experiments.E3(p)
	}},
	{"E3c", "TCP model cross-validation", func(q bool) *experiments.Result {
		return experiments.E3c(experiments.DefaultE3c)
	}},
	{"E3b", "split-TCP loss sweep (ablation)", func(q bool) *experiments.Result {
		p := experiments.DefaultE3
		if q {
			p.Trials = 8
		}
		return experiments.E3Ablation(p)
	}},
	{"E4", "video shaping vs per-flow policy", func(q bool) *experiments.Result {
		return experiments.E4(experiments.DefaultE4)
	}},
	{"E5", "TLS certificate validation", func(q bool) *experiments.Result {
		p := experiments.DefaultE5
		if q {
			p.ConnectionsPerClass = 20
		}
		return experiments.E5(p)
	}},
	{"E6", "DNS validation + quorum ablation", func(q bool) *experiments.Result {
		p := experiments.DefaultE6
		if q {
			p.Lookups = 80
		}
		return experiments.E6(p)
	}},
	{"E7", "PII detection placement", func(q bool) *experiments.Result {
		p := experiments.DefaultE7
		if q {
			p.Requests = 150
		}
		return experiments.E7(p)
	}},
	{"E8", "auditor detection + probe-budget ablation", func(q bool) *experiments.Result {
		p := experiments.DefaultE8
		if q {
			p.Trials = 12
		}
		return experiments.E8(p)
	}},
	{"E9", "discovery & deployment at scale", func(q bool) *experiments.Result {
		p := experiments.DefaultE9
		if q {
			p.Devices = 20
		}
		return experiments.E9(p)
	}},
	{"E10", "selective redirection vs full tunnel", func(q bool) *experiments.Result {
		return experiments.E10(experiments.DefaultE10)
	}},
	{"E11", "subscribers per edge host (scalability)", func(q bool) *experiments.Result {
		p := experiments.DefaultE11
		if q {
			p.UserCounts = []int{1, 20, 50}
			p.PacketsPerProbe = 500
		}
		p.Timing = benchTiming()
		return experiments.E11(p)
	}},
	{"E12", "multihomed selective routing", func(q bool) *experiments.Result {
		p := experiments.DefaultE12
		if q {
			p.Flows = 10
		}
		return experiments.E12(p)
	}},
	{"E13", "lifecycle under loss: retries, leases, fallback", func(q bool) *experiments.Result {
		p := experiments.DefaultE13
		if q {
			p.Devices = 8
		}
		return experiments.E13(p)
	}},
	{"E14", "supervised execution: breakers, failure policy, restart", func(q bool) *experiments.Result {
		p := experiments.DefaultE14
		if q {
			p.PacketsPerPhase = 200
		}
		return experiments.E14(p)
	}},
	{"E15", "resilient roaming: probed failover, make-before-break", func(q bool) *experiments.Result {
		p := experiments.DefaultE15
		if q {
			p.RunFor = 200 * time.Millisecond
			p.OutageEnd = 160 * time.Millisecond
		}
		return experiments.E15(p)
	}},
	{"E16", "decentralized discovery overlay: DHT, store, gossip", func(q bool) *experiments.Result {
		p := experiments.DefaultE16
		if q {
			p.Nodes, p.Lookups = 48, 16
		}
		return experiments.E16(p)
	}},
	{"E17", "multi-host edge orchestration: placement, evacuation, admission", func(q bool) *experiments.Result {
		p := experiments.DefaultE17
		if q {
			p.PlacementRequests = 5000
			p.ShareSizes = []int{50, 500}
		}
		return experiments.E17(p)
	}},
	{"E19", "composed failure storms under global invariants", func(q bool) *experiments.Result {
		p := experiments.DefaultE19
		if q {
			p.StormDevices = 10
			p.SoakSimTime = 20_000 * time.Second
		}
		return experiments.E19(p)
	}},
}

// wallclock is pvnbench's explicit measurement mode: real elapsed-time
// readings for E11's per-packet cost probes. Off by default so a plain
// run prints bit-deterministic tables (the EXPERIMENTS.md recorded
// numbers come from -wallclock runs).
var wallclock bool

// benchTiming picks the experiments' elapsed-time source per the
// -wallclock flag.
func benchTiming() experiments.Stopwatch {
	if wallclock {
		return experiments.WallStopwatch{}
	}
	return nil // deterministic default
}

// benchArtifact is the machine-readable record -bench-json writes per
// experiment: wall time and allocation cost of the run, plus whatever
// p50/p99/count metrics the experiment itself measured. Wall time and
// allocations are machine-dependent by nature; the metrics map is
// bit-deterministic in the seed.
type benchArtifact struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	WallMS    float64            `json:"wall_ms"`
	Ops       float64            `json:"ops,omitempty"`
	OpsPerSec float64            `json:"ops_per_sec,omitempty"`
	AllocsOp  float64            `json:"allocs_per_op,omitempty"`
	BytesOp   float64            `json:"bytes_per_op,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// runMeasured runs one experiment and records its wall time and what it
// allocated.
func runMeasured(e experiment, quick bool) (*experiments.Result, *benchArtifact) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := e.run(quick)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	art := &benchArtifact{
		ID:      res.ID,
		Title:   res.Title,
		WallMS:  float64(wall) / float64(time.Millisecond),
		Metrics: res.Metrics,
	}
	if ops, ok := res.Metrics["ops"]; ok && ops > 0 {
		art.Ops = ops
		if wall > 0 {
			art.OpsPerSec = ops / wall.Seconds()
		}
		art.AllocsOp = float64(after.Mallocs-before.Mallocs) / ops
		art.BytesOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	}
	return res, art
}

// writeBenchJSON records one experiment run under dir/BENCH_<id>.json.
func writeBenchJSON(dir string, art *benchArtifact) error {
	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+art.ID+".json"), append(blob, '\n'), 0o644)
}

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "smaller parameters for a fast pass")
	benchJSON := flag.String("bench-json", "", "directory to write BENCH_<exp>.json artifacts into")
	dataplaneFlag := flag.Bool("dataplane", false, "run the dataplane scaling sweep instead of the experiments")
	gateFlag := flag.String("gate", "", "fail on regression vs this committed baseline: BENCH_DATAPLANE.json re-runs the dataplane sweep, BENCH_<exp>.json its experiment")
	soakFlag := flag.Bool("soak", false, "run the scenario-engine random soak instead of the experiments")
	seedFlag := flag.Uint64("seed", 1, "soak: RNG seed (a violation report's reproduction line sets this)")
	simHours := flag.Float64("sim-hours", 1.0, "soak: simulated hours of composed storms")
	flag.BoolVar(&wallclock, "wallclock", false, "measure E11's per-packet cost with the real clock (its table becomes machine-dependent)")
	abBase := flag.String("ab", "", "A/B: build bench at this git revision and from the working tree, run alternating pairs, print bench -compare and win counts")
	abDir := flag.String("ab-dir", filepath.Join(os.TempDir(), "pvn-ab"), "A/B: scratch directory for binaries, runs and logs")
	abWorkloads := flag.String("ab-workloads", "fwd_cached", "A/B: comma-separated bench workloads")
	abPairs := flag.Int("ab-pairs", 10, "A/B: alternating pairs per workload")
	flag.Parse()

	if *abBase != "" {
		if err := runAB(abConfig{base: *abBase, dir: *abDir, workloads: splitList(*abWorkloads), pairs: *abPairs}); err != nil {
			fmt.Fprintf(os.Stderr, "pvnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *soakFlag {
		if err := runSoak(*seedFlag, *simHours); err != nil {
			fmt.Fprintf(os.Stderr, "pvnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *gateFlag != "" {
		if err := runGate(*gateFlag, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "pvnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *dataplaneFlag {
		art, err := runDataplaneBench(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvnbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(art.String())
		if *benchJSON != "" {
			if err := writeDataplaneJSON(*benchJSON, art); err != nil {
				fmt.Fprintf(os.Stderr, "pvnbench: bench-json: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[strings.ToUpper(e.id)] {
			continue
		}
		res, art := runMeasured(e, *quick)
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Duration(art.WallMS*float64(time.Millisecond)).Round(time.Millisecond))
		if *benchJSON != "" {
			if err := writeBenchJSON(*benchJSON, art); err != nil {
				fmt.Fprintf(os.Stderr, "pvnbench: bench-json: %v\n", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "pvnbench: no experiment matched %q (use -list)\n", *expFlag)
		os.Exit(1)
	}
}
