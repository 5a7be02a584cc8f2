package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricValue is one measured number with its unit, as the driver reads
// it from the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload string
	Seed     uint64
	Traced   bool
	// Attempted and Failed count operations against the workload's
	// oracle; Failures keeps the first few mismatches for the reader.
	Attempted, Failed int64
	Failures          []string
	Metrics           map[string]metricValue
	// Samples is the sample count behind each timing.
	Samples map[string]int
	// Exact holds counters that must repeat for one seed whatever the
	// machine does: verdict counts, installed rules, lookup rounds.
	Exact map[string]int64
	// InputHash digests every generated input in generation order.
	InputHash string
	// Notes are printed under the table and appear nowhere else.
	Notes []string
}

func newReport(workload string, seed uint64, traced bool) *report {
	return &report{
		Workload: workload, Seed: seed, Traced: traced,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Exact: map[string]int64{},
	}
}

// metricUnits maps every metric of the spec tables to its unit.
var metricUnits = func() map[string]string {
	units := map[string]string{}
	for _, tbl := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tbl {
			units[m.Name] = m.Unit
		}
	}
	return units
}()

// set records a metric with the unit the spec tables give it, so a name
// the tables do not know cannot be emitted.
func (r *report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in the spec tables")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) setN(name string, v float64, samples int) {
	r.set(name, v)
	r.Samples[name] = samples
}

// ops adds attempted operations.
func (r *report) ops(n int64) { r.Attempted += n }

// fail counts n operations whose outcome differs from the oracle.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// expect fails |got-want| operations when a counter misses its oracle.
func (r *report) expect(what string, got, want int64) {
	if got != want {
		r.fail(int64(math.Abs(float64(got-want))), "%s: got %d, oracle %d", what, got, want)
	}
}

// resultLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *report) resultLine() string {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic("bench: marshal result: " + err.Error())
	}
	return string(b)
}

// print writes the human-readable table of one run.
func (r *report) print(spec workloadSpec) {
	tbl, kind := endToEnd, "end to end"
	if r.Traced {
		tbl, kind = perLayer, "per layer (traced)"
	}
	fmt.Printf("workload %s seed=%d %s\n", r.Workload, r.Seed, kind)
	for _, m := range tbl {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		label := m.Name
		if a := alias[spec.Kind][m.Name]; a != "" {
			label += " (" + a + ")"
		}
		line := fmt.Sprintf("  %-40s %16.4f %-6s %s is better", label, v.Value, v.Unit, m.Better)
		if n, ok := r.Samples[m.Name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Println(line)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-40s %16.6f ratio  (%d failed of %d attempted)\n", "fail_ratio", ratio, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Printf("  %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Printf("    mismatch: %s\n", f)
	}
	keys := make([]string, 0, len(r.Exact))
	for k := range r.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("  exact counters:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, r.Exact[k])
	}
	fmt.Printf("\n  input hash: %s\n", r.InputHash)
}
