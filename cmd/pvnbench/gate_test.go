package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateBaseline() *dataplaneArtifact {
	return &dataplaneArtifact{
		ID:         "DATAPLANE",
		Title:      "dataplane scaling: inline Switch.Process vs sharded pipeline",
		GoMaxProcs: 4,
		Rows: []dataplaneRow{
			{Config: "inline", Packets: 300_000, NsPerOp: 110, OpsPerSec: 9e6, AllocsOp: 0},
			{Config: "shards=1", Packets: 300_000, NsPerOp: 280, OpsPerSec: 3.5e6, AllocsOp: 0, P50Us: 30, P99Us: 120},
			{Config: "shards=4", Packets: 300_000, NsPerOp: 300, OpsPerSec: 3.3e6, AllocsOp: 0, P50Us: 35, P99Us: 150},
		},
	}
}

// copyArtifact deep-copies so tests can mutate one side.
func copyArtifact(a *dataplaneArtifact) *dataplaneArtifact {
	c := *a
	c.Rows = append([]dataplaneRow(nil), a.Rows...)
	return &c
}

func TestGatePassesOnIdenticalRun(t *testing.T) {
	base := gateBaseline()
	if v := compareDataplane(base, copyArtifact(base)); len(v) != 0 {
		t.Fatalf("identical run flagged: %v", v)
	}
}

func TestGateToleratesMachineVariance(t *testing.T) {
	base := gateBaseline()
	cur := copyArtifact(base)
	for i := range cur.Rows {
		cur.Rows[i].OpsPerSec *= 0.5 // half as fast: slower CI machine, not a regression
		cur.Rows[i].AllocsOp += 0.2  // sub-alloc jitter from runtime bookkeeping
	}
	if v := compareDataplane(base, cur); len(v) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", v)
	}
}

// TestGateFailsOnSeededRegressions plants the two regressions the gate
// exists to catch — a new per-packet allocation on the zero-alloc path
// and an order-of-magnitude throughput collapse — and requires the
// comparison to flag each.
func TestGateFailsOnSeededRegressions(t *testing.T) {
	base := gateBaseline()

	t.Run("allocs", func(t *testing.T) {
		cur := copyArtifact(base)
		cur.Rows[1].AllocsOp = 2 // shards=1 gained 2 allocs/op
		v := compareDataplane(base, cur)
		if len(v) != 1 || !strings.Contains(v[0], "allocs/op") || !strings.Contains(v[0], "shards=1") {
			t.Fatalf("seeded alloc regression not flagged: %v", v)
		}
	})

	t.Run("throughput", func(t *testing.T) {
		cur := copyArtifact(base)
		cur.Rows[0].OpsPerSec = base.Rows[0].OpsPerSec / 10
		v := compareDataplane(base, cur)
		if len(v) != 1 || !strings.Contains(v[0], "ops/sec") || !strings.Contains(v[0], "inline") {
			t.Fatalf("seeded throughput collapse not flagged: %v", v)
		}
	})

	t.Run("missing-config", func(t *testing.T) {
		cur := copyArtifact(base)
		cur.Rows = cur.Rows[:2] // shards=4 vanished from the sweep
		v := compareDataplane(base, cur)
		if len(v) != 1 || !strings.Contains(v[0], "missing") {
			t.Fatalf("missing configuration not flagged: %v", v)
		}
	})
}

func TestGateBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := gateBaseline()
	if err := writeDataplaneJSON(dir, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadDataplaneBaseline(filepath.Join(dir, "BENCH_DATAPLANE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if v := compareDataplane(loaded, base); len(v) != 0 {
		t.Fatalf("round-tripped baseline differs: %v", v)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDataplaneBaseline(filepath.Join(dir, "empty.json")); err == nil {
		t.Fatal("rowless baseline accepted")
	}
}

// TestCommittedBaselineCoversChainPath: the gate only holds the rows the
// baseline has, so the committed one must keep the chain-bearing rule
// set beside the no-chain one, within the chain's allocation budget:
// none per packet, only the pools' amortized growth, since the boxes
// read HTTP through the in-place view.
func TestCommittedBaselineCoversChainPath(t *testing.T) {
	base, err := loadDataplaneBaseline(filepath.Join("..", "..", "BENCH_DATAPLANE.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]dataplaneRow{}
	for _, r := range base.Rows {
		rows[r.Config] = r
	}
	for _, cfg := range []string{"shards=1", "shards=2", "chain shards=1", "chain shards=2"} {
		r, ok := rows[cfg]
		if !ok {
			t.Errorf("BENCH_DATAPLANE.json has no %q row", cfg)
		} else if strings.HasPrefix(cfg, "chain") && r.AllocsOp >= 0.5 {
			t.Errorf("%s: %.2f allocs/op recorded, want none per packet (below 0.5)", cfg, r.AllocsOp)
		}
	}
}

// TestCommittedBaselineCoversMissPath: the same for the flow-cache miss
// path, the inline path (Switch.Process, the workers' code on the
// caller's goroutine) and the quiescence path (bursts each ended by
// Drain, back to back and from a producer parked between them) — the
// rows must be in the committed baseline for the gate to hold them, and
// none allocates per packet beyond the cache's own amortized growth.
func TestCommittedBaselineCoversMissPath(t *testing.T) {
	base, err := loadDataplaneBaseline(filepath.Join("..", "..", "BENCH_DATAPLANE.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]dataplaneRow{}
	for _, r := range base.Rows {
		rows[r.Config] = r
	}
	for _, cfg := range []string{"miss shards=1", "miss shards=2", "inline", "burst shards=1", "burst shards=2", "burst idle shards=1", "burst idle shards=2"} {
		if r, ok := rows[cfg]; !ok {
			t.Errorf("BENCH_DATAPLANE.json has no %q row", cfg)
		} else if r.AllocsOp >= 0.5 {
			t.Errorf("%s: %.2f allocs/op recorded, want none per packet", cfg, r.AllocsOp)
		}
	}
}

// TestExperimentGate: a BENCH_<exp>.json baseline holds its
// experiment's allocs/op to the sweep's rule. Sub-alloc jitter and
// fewer allocations pass; a new allocation per op fails. A baseline
// naming no experiment, or recording no allocs/op, is refused before
// anything runs.
func TestExperimentGate(t *testing.T) {
	base := &benchArtifact{ID: "E16", AllocsOp: 75.6}
	for _, c := range []struct {
		allocs float64
		fail   bool
	}{{75.6, false}, {76.0, false}, {50, false}, {76.2, true}, {76.6, true}} {
		cur := *base
		cur.AllocsOp = c.allocs
		v := compareExperiment(base, &cur)
		if (v != "") != c.fail {
			t.Errorf("%.1f allocs/op against %.1f: violation %q, want failure=%t", c.allocs, base.AllocsOp, v, c.fail)
		}
		if c.fail && !strings.Contains(v, "E16") {
			t.Errorf("violation %q does not name the experiment", v)
		}
	}
	dir := t.TempDir()
	for name, blob := range map[string]string{
		"unknown.json":  `{"id":"E99","allocs_per_op":1}`,
		"no-count.json": `{"id":"E16"}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runGate(path, false); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

// TestCommittedE16Baseline: the committed overlay baseline names an
// experiment the gate can re-run and records its allocs/op.
func TestCommittedE16Baseline(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_E16.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base benchArtifact
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatal(err)
	}
	known := false
	for _, e := range all {
		known = known || e.id == base.ID
	}
	if base.ID != "E16" || !known || base.AllocsOp <= 0 {
		t.Fatalf("BENCH_E16.json records experiment %q (known=%t) at %.2f allocs/op", base.ID, known, base.AllocsOp)
	}
}
