package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateBaseline() *dataplaneArtifact {
	return &dataplaneArtifact{
		ID:         "DATAPLANE",
		Title:      "dataplane scaling: serial switch vs sharded pipeline",
		GoMaxProcs: 4,
		Rows: []dataplaneRow{
			{Config: "serial", Packets: 300_000, NsPerOp: 900, OpsPerSec: 1.1e6, AllocsOp: 10},
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
		if len(v) != 1 || !strings.Contains(v[0], "ops/sec") || !strings.Contains(v[0], "serial") {
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
// set beside the no-chain one, within the chain's allocation budget.
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
		} else if strings.HasPrefix(cfg, "chain") && (r.AllocsOp < 1 || r.AllocsOp > 16) {
			t.Errorf("%s: %.2f allocs/op recorded, want the one shared decode (at most 16)", cfg, r.AllocsOp)
		}
	}
}

// TestCommittedBaselineCoversMissPath: the same for the flow-cache miss
// path — the rows must be in the committed baseline for the gate to hold
// them, and a miss allocates nothing per packet beyond the cache's own
// amortized growth.
func TestCommittedBaselineCoversMissPath(t *testing.T) {
	base, err := loadDataplaneBaseline(filepath.Join("..", "..", "BENCH_DATAPLANE.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]dataplaneRow{}
	for _, r := range base.Rows {
		rows[r.Config] = r
	}
	for _, cfg := range []string{"miss shards=1", "miss shards=2"} {
		if r, ok := rows[cfg]; !ok {
			t.Errorf("BENCH_DATAPLANE.json has no %q row", cfg)
		} else if r.AllocsOp >= 0.5 {
			t.Errorf("%s: %.2f allocs/op recorded, want none per packet", cfg, r.AllocsOp)
		}
	}
}
