package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readRuns groups the untraced runs of a -json file by workload.
func readRuns(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

// summary is the median and quartiles of one metric over a set of runs.
type summary struct {
	n                int
	q1, median, q3   float64
	lowest, highest  float64
	failed, attempts int64
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// failRatio is failed operations over attempted ones.
func (s summary) failRatio() float64 {
	if s.attempts == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempts)
}

func summarize(runs []runRecord, metric string) summary {
	var xs []float64
	var s summary
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
		s.failed += r.Failed
		s.attempts += r.Attempted
	}
	sort.Float64s(xs)
	s.n = len(xs)
	if s.n > 0 {
		s.q1, s.median, s.q3 = quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
		s.lowest, s.highest = xs[0], xs[len(xs)-1]
	}
	return s
}

// verdict applies choosing-metrics §6.5 to one metric of one workload:
// regressed when the new median is worse than the old by more than the
// bound; unresolved when the old runs' own spread is wider than the
// bound, unless every new run reads better than every old one; pass
// otherwise.
func verdict(m metricSpec, old, cur summary) (delta float64, v string) {
	if old.n == 0 || cur.n == 0 || old.median == 0 {
		return 0, "no data"
	}
	delta = (cur.median - old.median) / old.median
	worse := delta
	allBetter := cur.highest < old.lowest
	if m.Better == "higher" {
		worse = -delta
		allBetter = cur.lowest > old.highest
	}
	switch {
	case worse > m.Bound:
		return delta, "regressed"
	case old.spread() > m.Bound && !allBetter:
		return delta, "unresolved"
	default:
		return delta, "pass"
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change and the verdict against the metric's bound. A rise in
// failed operations is a regression whatever the timings say.
func compareFiles(oldPath, newPath string) error {
	old, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-17s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		if len(old[w.Name]) == 0 && len(cur[w.Name]) == 0 {
			continue
		}
		for _, m := range endToEnd {
			o, c := summarize(old[w.Name], m.Name), summarize(cur[w.Name], m.Name)
			delta, v := verdict(m, o, c)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-17s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s (n=%d/%d, old IQR %.1f%%)\n",
				w.Name, m.Name, o.median, c.median, 100*delta, 100*m.Bound, v, o.n, c.n, 100*o.spread())
		}
		o, c := summarize(old[w.Name], ""), summarize(cur[w.Name], "")
		v := "pass"
		if c.failRatio() > o.failRatio() {
			v = "regressed"
			regressed++
		}
		fmt.Printf("%-17s %-14s %14d %14d %8s %6s  %s\n", w.Name, "failed", o.failed, c.failed, "", "0", v)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
