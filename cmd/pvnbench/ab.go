package main

// The A/B procedure every performance claim on bench's workloads rests
// on, as one command (`make ab`): build bench at a base revision and
// from the working tree into a scratch directory, run alternating pairs
// of runs at bench's own run length, then hand the two sides' runs to
// `bench -compare` (medians, the base's IQR, each metric's bound and
// verdict) and add what it does not print: how many pairs the change
// won per end-to-end metric, and whether both sides agree on what must
// repeat. The base is unpacked with `git archive` (offline, and it
// leaves nothing registered in .git); nothing is written under bench/.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// abConfig is one A/B comparison.
type abConfig struct {
	base      string   // git revision the change is measured against
	dir       string   // scratch directory for binaries, runs and logs
	workloads []string // bench workloads, each run pairs times per side
	pairs     int
}

// abRun is the part of one bench -json line the win count reads.
type abRun struct {
	Workload  string                             `json:"workload"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
	Exact     map[string]int64                   `json:"exact"`
	InputHash string                             `json:"input_hash"`
}

// runAB builds both sides, runs the pairs and prints the comparison.
func runAB(cfg abConfig) error {
	if cfg.pairs < 1 {
		return fmt.Errorf("ab: -ab-pairs %d: need at least one pair", cfg.pairs)
	}
	dir, err := filepath.Abs(cfg.dir) // the base builds in its own tree
	if err != nil {
		return err
	}
	// The win count needs each end-to-end metric's direction, which
	// BENCHMARK.json declares.
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		return fmt.Errorf("ab: BENCHMARK.json: %w", err)
	}
	src := filepath.Join(dir, "base-src")
	if err := os.RemoveAll(src); err != nil {
		return err
	}
	if err := os.MkdirAll(src, 0o755); err != nil {
		return err
	}
	archive := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", cfg.base, src)
	archive.Stderr = os.Stderr
	if err := archive.Run(); err != nil {
		return fmt.Errorf("ab: unpacking %s: %w", cfg.base, err)
	}
	sides := []string{"base", "change"}
	bin := func(side string) string { return filepath.Join(dir, "bench-"+side) }
	runs := func(side string) string { return filepath.Join(dir, side+".jsonl") }
	for _, side := range sides {
		build := exec.Command("go", "build", "-o", bin(side), "./bench")
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if side == "base" {
			build.Dir = src
		}
		if err := build.Run(); err != nil {
			return fmt.Errorf("ab: building the %s: %w", side, err)
		}
		if err := os.Remove(runs(side)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	fmt.Printf("ab: %s against the working tree, %d alternating pairs per workload; runs and logs in %s\n",
		cfg.base, cfg.pairs, dir)

	for _, w := range cfg.workloads {
		for i := 0; i < cfg.pairs; i++ {
			order := sides
			if i%2 == 1 {
				order = []string{"change", "base"}
			}
			for _, side := range order {
				logPath := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.log", w, side, i))
				log, err := os.Create(logPath)
				if err != nil {
					return err
				}
				cmd := exec.Command(bin(side), "-workload", w, "-json", runs(side))
				cmd.Stdout, cmd.Stderr = log, log
				err = cmd.Run()
				log.Close()
				if err != nil {
					return fmt.Errorf("ab: %s %s pair %d: %w (see %s)", side, w, i, err, logPath)
				}
			}
		}
	}

	compare := exec.Command(bin("change"), "-compare", runs("base"), runs("change"))
	compare.Stdout, compare.Stderr = os.Stdout, os.Stderr
	cmpErr := compare.Run()

	byWorkload := map[string]map[string][]abRun{}
	for _, side := range sides {
		rs, err := abReadRuns(runs(side))
		if err != nil {
			return err
		}
		for _, r := range rs {
			if byWorkload[r.Workload] == nil {
				byWorkload[r.Workload] = map[string][]abRun{}
			}
			byWorkload[r.Workload][side] = append(byWorkload[r.Workload][side], r)
		}
	}
	for _, w := range cfg.workloads {
		base, change := byWorkload[w]["base"], byWorkload[w]["change"]
		if len(base) != len(change) || len(base) == 0 {
			return fmt.Errorf("ab: %s: %d base runs and %d change runs recorded", w, len(base), len(change))
		}
		fmt.Printf("%s: pairs the change won of %d:", w, len(base))
		for _, m := range spec.EndToEnd {
			wins := 0
			for i := range base {
				b, c := base[i].Metrics[m.Name].Value, change[i].Metrics[m.Name].Value
				if (m.Better == "lower" && c < b) || (m.Better == "higher" && c > b) {
					wins++
				}
			}
			fmt.Printf(" %s %d", m.Name, wins)
		}
		same := true
		for _, r := range append(base, change...) {
			same = same && r.InputHash == base[0].InputHash && fmt.Sprint(r.Exact) == fmt.Sprint(base[0].Exact)
		}
		fmt.Printf("; input hashes and exact counters identical on both sides: %t\n", same)
	}
	if cmpErr != nil {
		return fmt.Errorf("ab: bench -compare: %w", cmpErr)
	}
	return nil
}

// abReadRuns reads the runs of a bench -json file in order.
func abReadRuns(path string) ([]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []abRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r abRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// splitList splits a comma-separated flag value.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
