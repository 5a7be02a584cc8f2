package netsim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.N() != 0 || d.Mean() != 0 || d.Median() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty Dist should report zeros everywhere")
	}
}

func TestDistBasicStats(t *testing.T) {
	var d Dist
	for _, v := range []float64{1, 2, 3, 4, 5} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d", d.N())
	}
	if d.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", d.Mean())
	}
	if d.Median() != 3 {
		t.Fatalf("Median = %v, want 3", d.Median())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", d.Min(), d.Max())
	}
}

func TestDistPercentileInterpolation(t *testing.T) {
	var d Dist
	for _, v := range []float64{10, 20, 30, 40} {
		d.Add(v)
	}
	if got := d.Percentile(0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Percentile(50); got != 25 {
		t.Fatalf("p50 = %v, want 25 (interpolated)", got)
	}
}

func TestDistAddAfterQuery(t *testing.T) {
	var d Dist
	d.Add(5)
	_ = d.Median() // forces sort
	d.Add(1)       // must invalidate sorted state
	if d.Min() != 1 {
		t.Fatalf("Min after late Add = %v, want 1", d.Min())
	}
}

func TestDistAddDuration(t *testing.T) {
	var d Dist
	d.AddDuration(250 * time.Millisecond)
	if d.Mean() != 250 {
		t.Fatalf("AddDuration stored %v, want 250 (ms)", d.Mean())
	}
}

func TestDistPercentileMonotonic(t *testing.T) {
	if err := quick.Check(func(vals []float64, seed uint64) bool {
		var d Dist
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
		}
		if d.N() == 0 {
			return true
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := d.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistMatchesNaiveSort(t *testing.T) {
	r := NewRNG(3)
	var d Dist
	var raw []float64
	for i := 0; i < 1000; i++ {
		v := r.Float64() * 100
		d.Add(v)
		raw = append(raw, v)
	}
	sort.Float64s(raw)
	if d.Min() != raw[0] || d.Max() != raw[len(raw)-1] {
		t.Fatal("Min/Max disagree with naive sort")
	}
}

func TestDistStringNonEmpty(t *testing.T) {
	var d Dist
	d.Add(1)
	if s := d.String(); len(s) == 0 {
		t.Fatal("String() empty")
	}
}
