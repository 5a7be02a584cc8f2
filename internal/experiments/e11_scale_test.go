package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestE11ScaleShape(t *testing.T) {
	p := DefaultE11
	p.UserCounts = []int{1, 20, 50}
	p.PacketsPerProbe = 500
	res := E11(p)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Every user deploys within capacity.
	for _, row := range res.Rows {
		if cell(t, row[0]) != cell(t, row[1]) {
			t.Fatalf("row %v: not all users deployed", row)
		}
	}
	// Memory is 12 MB per user.
	if got := cell(t, res.Rows[1][2]); got != 240 {
		t.Fatalf("memory for 20 users %v MB, want 240", got)
	}
	// Rule table: 4 rules per user.
	if got := cell(t, res.Rows[2][3]); got != 200 {
		t.Fatalf("rules for 50 users %v, want 200", got)
	}
}

func TestE12MultihomingShape(t *testing.T) {
	p := DefaultE12
	p.Flows = 10
	res := E12(p)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	wifiSmall := cell(t, res.Rows[0][1])
	lteSmall := cell(t, res.Rows[1][1])
	pvnSmall := cell(t, res.Rows[2][1])
	wifiBulk := cell(t, res.Rows[0][2])
	lteBulk := cell(t, res.Rows[1][2])
	pvnBulk := cell(t, res.Rows[2][2])

	// WiFi is best for small flows, LTE best for bulk.
	if wifiSmall >= lteSmall {
		t.Fatalf("small flows: wifi %v !< lte %v", wifiSmall, lteSmall)
	}
	if lteBulk >= wifiBulk {
		t.Fatalf("bulk: lte %v !< wifi %v", lteBulk, wifiBulk)
	}
	// PVN matches the best of each class.
	if pvnSmall > wifiSmall*1.05 || pvnBulk > lteBulk*1.05 {
		t.Fatalf("pvn not at per-class best: small %v/%v bulk %v/%v", pvnSmall, wifiSmall, pvnBulk, lteBulk)
	}
	if res.Rows[2][3] != "1.00x" {
		t.Fatalf("pvn penalty %q, want 1.00x", res.Rows[2][3])
	}
}

func TestE3cCrossValidationShape(t *testing.T) {
	res := E3c(DefaultE3c)
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		ratio := cell(t, row[3])
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("%s: models diverge (ratio %v)", row[0], ratio)
		}
	}
	// Clean links agree tightly.
	for _, i := range []int{0, 1} {
		if r := cell(t, res.Rows[i][3]); r < 0.9 || r > 1.15 {
			t.Fatalf("clean link ratio %v, want ~1.0", r)
		}
	}
}

// TestWallclockOnlyOnRequest: E11 reads the wall clock only through a
// WallStopwatch its caller passes (pvnbench -wallclock). The default is
// the synthetic stopwatch, whose cost is a pure function of the op
// count, and the table says which of the two it used.
func TestWallclockOnlyOnRequest(t *testing.T) {
	if _, ok := timing(nil).(SimStopwatch); !ok || isWallclock(nil) {
		t.Fatalf("default stopwatch = %T, want SimStopwatch", timing(nil))
	}
	if got := timing(nil).Start()(3); got != 3*time.Microsecond {
		t.Fatalf("synthetic cost of 3 ops = %v, want 3µs", got)
	}
	if !isWallclock(WallStopwatch{}) || (WallStopwatch{}).Start()(1) < 0 {
		t.Fatal("WallStopwatch does not measure real time")
	}
	p := DefaultE11
	p.UserCounts, p.PacketsPerProbe = []int{1}, 50
	if s := E11(p).String(); !strings.Contains(s, "simclock timing") {
		t.Fatalf("default E11 does not say its costs are synthetic:\n%s", s)
	}
}
