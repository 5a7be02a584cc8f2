package main

// The bench gate: re-run the dataplane sweep and diff it against the
// committed BENCH_DATAPLANE.json baseline, or re-run the experiment a
// committed BENCH_<exp>.json records (E16, the overlay) and hold its
// allocs/op to the same rule as the sweep's. Two thresholds,
// deliberately asymmetric:
//
//   - allocs/op gates strictly (baseline + 0.5): allocation counts are
//     machine-independent, so any real increase is a code regression —
//     typically a fast-path escape or a dropped pooling path.
//   - ops/sec gates loosely (≥ 25% of baseline): the baseline was
//     recorded on one machine and CI runs on others, so only
//     catastrophic slowdowns (a new lock, a per-packet decode) should
//     trip it, not scheduler noise.

import (
	"encoding/json"
	"fmt"
	"os"
)

const (
	gateAllocSlack  = 0.5  // absolute allocs/op headroom over baseline
	gateMinOpsRatio = 0.25 // fraction of baseline ops/sec that must remain
)

// loadDataplaneBaseline reads a committed BENCH_DATAPLANE.json.
func loadDataplaneBaseline(path string) (*dataplaneArtifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art dataplaneArtifact
	if err := json.Unmarshal(blob, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(art.Rows) == 0 {
		return nil, fmt.Errorf("%s: baseline has no rows", path)
	}
	return &art, nil
}

// compareDataplane diffs a current sweep against the baseline and
// returns one message per violation (empty = gate passes). Every
// baseline configuration must still be present and within thresholds.
func compareDataplane(base, cur *dataplaneArtifact) []string {
	current := make(map[string]dataplaneRow, len(cur.Rows))
	for _, r := range cur.Rows {
		current[r.Config] = r
	}
	var violations []string
	for _, b := range base.Rows {
		c, ok := current[b.Config]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: configuration missing from current run", b.Config))
			continue
		}
		if c.AllocsOp > b.AllocsOp+gateAllocSlack {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op regressed %.3f -> %.3f (limit %.3f)",
				b.Config, b.AllocsOp, c.AllocsOp, b.AllocsOp+gateAllocSlack))
		}
		if b.OpsPerSec > 0 && c.OpsPerSec < b.OpsPerSec*gateMinOpsRatio {
			violations = append(violations, fmt.Sprintf(
				"%s: ops/sec collapsed %.0f -> %.0f (floor %.0f)",
				b.Config, b.OpsPerSec, c.OpsPerSec, b.OpsPerSec*gateMinOpsRatio))
		}
	}
	return violations
}

// compareExperiment returns the violation when the current run of an
// experiment allocates more per op than its baseline allows, or "".
func compareExperiment(base, cur *benchArtifact) string {
	if cur.AllocsOp > base.AllocsOp+gateAllocSlack {
		return fmt.Sprintf("%s: allocs/op regressed %.3f -> %.3f (limit %.3f)",
			base.ID, base.AllocsOp, cur.AllocsOp, base.AllocsOp+gateAllocSlack)
	}
	return ""
}

// runExperimentGate re-runs the experiment the baseline at path records,
// at full size as it was recorded, and diffs its allocs/op.
func runExperimentGate(path string, base *benchArtifact) error {
	for _, e := range all {
		if e.id != base.ID {
			continue
		}
		res, cur := runMeasured(e, false)
		fmt.Println(res.String())
		if v := compareExperiment(base, cur); v != "" {
			fmt.Fprintf(os.Stderr, "bench-gate: %s\n", v)
			return fmt.Errorf("bench gate failed vs %s", path)
		}
		fmt.Printf("bench gate passed vs %s (%.3f allocs/op, within +%.1f of %.3f)\n",
			path, cur.AllocsOp, gateAllocSlack, base.AllocsOp)
		return nil
	}
	return fmt.Errorf("%s: no experiment %q", path, base.ID)
}

// runGate diffs a fresh run against the baseline at path: the dataplane
// sweep for BENCH_DATAPLANE.json, else the experiment the file records.
// It returns an error if the gate fails.
func runGate(path string, quick bool) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var exp benchArtifact
	if err := json.Unmarshal(blob, &exp); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if exp.ID != "DATAPLANE" {
		if exp.AllocsOp <= 0 {
			return fmt.Errorf("%s: baseline records no allocs/op", path)
		}
		return runExperimentGate(path, &exp)
	}
	base, err := loadDataplaneBaseline(path)
	if err != nil {
		return err
	}
	cur, err := runDataplaneBench(quick)
	if err != nil {
		return err
	}
	fmt.Println(cur.String())
	if violations := compareDataplane(base, cur); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "bench-gate: %s\n", v)
		}
		return fmt.Errorf("bench gate failed: %d regression(s) vs %s", len(violations), path)
	}
	fmt.Printf("bench gate passed vs %s (allocs within +%.1f, ops/sec above %.0f%% of baseline)\n",
		path, gateAllocSlack, gateMinOpsRatio*100)
	return nil
}
