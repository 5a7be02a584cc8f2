// Command bench is the repository's benchmark: the packet path (Submit to
// verdict through a compiled PVNC with its middlebox chain) and the
// session path (first DM to first forwarded packet), end to end and layer
// by layer. See README.md in this directory.
//
//	go run ./bench                                   all workloads, end to end
//	go run ./bench -trace 1                          all workloads, per layer
//	go run ./bench -workload chain_http -seed 7      one workload
//	go run ./bench -compare old.jsonl new.jsonl      two sets of runs
//
// Everything runs in this process: packets enter through Pipeline.Submit
// and sessions through core.Connect; no link and no loopback socket is
// crossed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all); one of "+workloadNames())
		seed     = flag.Uint64("seed", 1, "input seed: flow order, sizes, which frames leak, which nodes ask")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		scale    = flag.Float64("scale", 1, "multiplies every count (residents, flows, round sizes)")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
		jsonOut  = flag.String("json", "", "append one JSON line per run to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -json files: bench -compare old new")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare old.jsonl new.jsonl")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err.Error())
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument " + flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace takes 0 or 1")
	}
	specs := workloads
	if *workload != "" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload " + *workload + "; have " + workloadNames())
		}
		specs = []workloadSpec{spec}
	}

	fmt.Printf("pvn bench: in-process, no link and no loopback socket; one producer goroutine; pvnd -dataplane=sharded wiring with zero-value pipeline config\n")
	fmt.Printf("pvn bench: GOMAXPROCS=%d shards=%d %s %s/%s seed=%d seconds=%g scale=%g trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, *seed, *seconds, *scale, *trace)

	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	var last *report
	for _, spec := range specs {
		cfg := runConfig{spec: spec, seed: *seed, seconds: *seconds, scale: *scale, rec: rec}
		rep, err := runWorkload(cfg)
		if err != nil {
			fatal(spec.Name + ": " + err.Error())
		}
		rep.print(spec)
		if *jsonOut != "" {
			if err := appendJSON(*jsonOut, rep); err != nil {
				fatal(err.Error())
			}
		}
		last = rep
	}
	if rec != nil {
		rec.printSelfTimes()
		if *traceOut != "" {
			if err := rec.write(*traceOut); err != nil {
				fatal(err.Error())
			}
			fmt.Printf("  %d spans written to %s\n", len(rec.spans), *traceOut)
		}
	}
	// The driver reads the last line; with several workloads it is the
	// last workload's.
	fmt.Println(last.resultLine())
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench: "+msg)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runWorkload runs one workload once: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func runWorkload(cfg runConfig) (*report, error) {
	if cfg.rec != nil {
		return runTraced(cfg)
	}
	switch cfg.spec.Kind {
	case "packet":
		return runPackets(cfg)
	case "session":
		return runSessions(cfg)
	default:
		return runDiscovery(cfg)
	}
}

// runTraced is the traced run: the workload's own traced pass for the
// ratios and counts, then the direct-call ladder for the time rows.
// Rows of layers the workload does not cross stay 0.
func runTraced(cfg runConfig) (*report, error) {
	rep := newReport(cfg.spec.Name, cfg.seed, true)
	for _, m := range perLayer {
		rep.set(m.Name, 0)
	}
	lw := &ladderWorlds{}
	defer lw.close()
	switch cfg.spec.Kind {
	case "packet":
		w, err := tracedPackets(cfg, rep)
		if err != nil {
			return nil, err
		}
		lw.built = append(lw.built, w.close)
		lw.hdr = w
		if cfg.spec.Name == "chain_http" {
			lw.http = w
		}
	case "session":
		w, err := tracedSessions(cfg, rep)
		if err != nil {
			return nil, err
		}
		lw.built = append(lw.built, w.close)
		lw.sessions = w
	default:
		w, err := tracedDiscovery(cfg, rep)
		if err != nil {
			return nil, err
		}
		lw.disc = w
	}
	if err := runLadder(cfg, rep, lw); err != nil {
		return nil, err
	}
	crossCheck(rep, lw.hdr)
	return rep, nil
}

// crossCheck notes, for a traced packet workload, what the pipeline's
// sampled stage counters say next to the ladder rows that measure the
// same work by direct call; the two should agree within 2x.
func crossCheck(rep *report, w *packetWorld) {
	if w.stageChainNs > 0 {
		ladder := rep.Metrics["middlebox.execute_chain_batch_ns"].Value
		rep.Notes = append(rep.Notes, fmt.Sprintf("cross-check chain: Stats() %.0f ns/packet, ladder execute_chain_batch_ns %.0f (ratio %.2f)", w.stageChainNs, ladder, w.stageChainNs/ladder))
	}
	if w.stageDecodeNs > 0 {
		ladder := rep.Metrics["packet.decode_headers_ns"].Value + rep.Metrics["openflow.extract_fields_ns"].Value
		rep.Notes = append(rep.Notes, fmt.Sprintf("cross-check decode: Stats() %.0f ns/miss, ladder decode_headers_ns+extract_fields_ns %.0f (ratio %.2f)", w.stageDecodeNs, ladder, w.stageDecodeNs/ladder))
	}
}

// runRecord is one line of a -json file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Exact     map[string]int64       `json:"exact"`
	InputHash string                 `json:"input_hash"`
}

func appendJSON(path string, r *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(runRecord{r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Metrics, r.Exact, r.InputHash})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
