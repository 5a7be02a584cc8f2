package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smokeConfig runs a workload at a thousandth of its counts with no
// time budget, so every loop does its minimum.
func smokeConfig(spec workloadSpec, seed uint64, traced bool) runConfig {
	cfg := runConfig{spec: spec, seed: seed, seconds: 0, scale: 0.001}
	if traced {
		cfg.rec = newRecorder()
	}
	return cfg
}

func metricNames(tbl []metricSpec) map[string]string {
	out := map[string]string{}
	for _, m := range tbl {
		out[m.Name] = m.Unit
	}
	return out
}

// checkReport asserts a run emitted exactly the metrics of tbl, with
// their units, and held every operation against its oracle.
func checkReport(t *testing.T, rep *report, tbl []metricSpec) {
	t.Helper()
	want := metricNames(tbl)
	for name, unit := range want {
		got, ok := rep.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", rep.Workload, name)
		} else if got.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", rep.Workload, name, got.Unit, unit)
		}
	}
	for name := range rep.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected metric %s", rep.Workload, name)
		}
	}
	if rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("%s: %d failed of %d attempted: %v", rep.Workload, rep.Failed, rep.Attempted, rep.Failures)
	}
	var line struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
		t.Fatalf("%s: result line: %v", rep.Workload, err)
	}
	if !line.Correct || len(line.Metrics) != len(want) {
		t.Errorf("%s: result line correct=%v with %d metrics, want %d", rep.Workload, line.Correct, len(line.Metrics), len(want))
	}
}

// TestSmoke runs every workload untraced and traced at 1/1000 scale.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		rep, err := runWorkload(smokeConfig(spec, 1, false))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		checkReport(t, rep, endToEnd)
		for _, m := range endToEnd {
			if rep.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", spec.Name, m.Name, rep.Metrics[m.Name].Value)
			}
		}
		cfg := smokeConfig(spec, 1, true)
		traced, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", spec.Name, err)
		}
		checkReport(t, traced, perLayer)
		for _, m := range perLayer {
			if timeUnits[m.Unit] && traced.Metrics[m.Name].Value == 0 {
				t.Errorf("%s traced: time row %s was not measured", spec.Name, m.Name)
			}
		}
		if len(cfg.rec.spans) == 0 {
			t.Errorf("%s traced: no spans recorded", spec.Name)
		}
		for i, s := range cfg.rec.spans {
			if s.EndNs < s.StartNs || s.Parent >= i {
				t.Fatalf("%s traced: span %d malformed: %+v", spec.Name, i, s)
			}
		}
	}
}

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// TestDeterminism: one seed gives one input hash and one set of exact
// counters; another seed gives other inputs.
func TestDeterminism(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			a, err := runWorkload(smokeConfig(spec, 7, traced))
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			b, err := runWorkload(smokeConfig(spec, 7, traced))
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if a.InputHash == "" || a.InputHash != b.InputHash {
				t.Errorf("%s traced=%v: same seed, input hashes %q and %q", spec.Name, traced, a.InputHash, b.InputHash)
			}
			if !reflect.DeepEqual(a.Exact, b.Exact) {
				t.Errorf("%s traced=%v: same seed, exact counters differ:\n%v\n%v", spec.Name, traced, a.Exact, b.Exact)
			}
			for _, name := range []string{"dataplane.cache_hit_ratio", "openflow.scan_rules_per_miss", "overlay.rounds_per_discover"} {
				if traced && a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: same seed, %s reads %v and %v", spec.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if traced {
				continue
			}
			c, err := runWorkload(smokeConfig(spec, 8, false))
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if c.InputHash == a.InputHash {
				t.Errorf("%s: seeds 7 and 8 generated the same inputs", spec.Name)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables compiled into
// the program from drifting apart, and holds both to the driver's
// limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./" + benchPath}) {
		t.Errorf("command = %v", bf.Command)
	}
	if !reflect.DeepEqual(bf.Paths, []string{benchPath}) {
		t.Errorf("paths = %v, want [%s]", bf.Paths, benchPath)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (2 to 8 allowed)", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why differs)", i, bf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (at most 16)", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		checkName(m.Name)
		got := bf.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %s %s %s %v", i, got, m.Name, m.Unit, m.Better, m.Bound)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %v outside the driver's limits", m.Name, m.Unit, m.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.Name)
		got := bf.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q or direction %q outside the driver's limits", m.Name, m.Unit, m.Better)
		}
	}
}

// TestCompareVerdicts pins the three outcomes of -compare.
func TestCompareVerdicts(t *testing.T) {
	m := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := summary{n: 5, q1: 99, median: 100, q3: 101, lowest: 98, highest: 102}
	wide := summary{n: 5, q1: 80, median: 100, q3: 120, lowest: 70, highest: 130}
	for _, tc := range []struct {
		name     string
		old, cur summary
		want     string
	}{
		{"within the bound", tight, summary{n: 5, median: 95, lowest: 94, highest: 96}, "pass"},
		{"worse than the bound", tight, summary{n: 5, median: 85, lowest: 84, highest: 86}, "regressed"},
		{"spread wider than the bound", wide, summary{n: 5, median: 98, lowest: 90, highest: 105}, "unresolved"},
		{"every new run beats every old run", wide, summary{n: 5, median: 150, lowest: 140, highest: 160}, "pass"},
	} {
		if _, got := verdict(m, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
