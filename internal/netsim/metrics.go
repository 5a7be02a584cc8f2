package netsim

import (
	"fmt"
	"sort"
	"time"
)

// Dist accumulates scalar samples and answers summary-statistics queries.
// Experiments use it for latencies, throughputs and detection scores. The
// zero value is ready to use.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

// AddDuration records a duration sample in milliseconds, the unit all
// latency experiments report in.
func (d *Dist) AddDuration(v time.Duration) {
	d.Add(float64(v) / float64(time.Millisecond))
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Percentile returns the p'th percentile (0 <= p <= 100) using
// nearest-rank interpolation, or 0 with no samples.
func (d *Dist) Percentile(p float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return d.samples[n-1]
	}
	return d.samples[lo]*(1-frac) + d.samples[lo+1]*frac
}

// Median is Percentile(50).
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Min returns the smallest sample, or 0 with no samples.
func (d *Dist) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// String renders a one-line summary suitable for experiment output.
func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f min=%.2f max=%.2f",
		d.N(), d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Min(), d.Max())
}
