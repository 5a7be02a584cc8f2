package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// rng is the benchmark's own splitmix64 generator. Inputs must depend on
// the seed and on nothing in the program under test, so the benchmark
// does not borrow netsim.RNG: a change there would silently change the
// inputs of both sides of a comparison.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// letters returns n lowercase letters drawn from alphabet.
func (r *rng) letters(n int, alphabet string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.intn(len(alphabet))]
	}
	return string(b)
}

// quantile returns the q-quantile (0..1) of an ascending-sorted slice by
// linear interpolation, 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the highest quantile, up to 0.99, that still has at
// least ten samples beyond it (choosing-metrics §1); with fewer than
// twenty samples it degrades to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// quietQuartile is the quartile of xs on its better side: the upper
// quartile of rates, the lower quartile of times. The box this runs on
// is shared, and its other tenants only ever make a slice of the run
// read worse, for seconds at a time; the quartile on the better side
// sits inside the undisturbed slices where a median straddles both.
func quietQuartile(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}

// latencySummary reduces per-operation latencies (in recording order)
// to a median, a p90 and a p99. None is the quantile of the pooled
// samples: the run is cut into slices equal slices, each quantile is
// taken per slice, and the quiet quartile of the slices is reported, so
// a GC pause, a descheduled worker or a noisy neighbour moves a few
// slices and not the result.
func latencySummary(samples []float64, slices int) (p50, p90, p99 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	per := len(samples) / slices
	if per < 20 {
		slices, per = 1, len(samples)
	}
	var q50, q90, q99 []float64
	for i := 0; i < slices; i++ {
		s := append([]float64(nil), samples[i*per:(i+1)*per]...)
		sort.Float64s(s)
		q50 = append(q50, quantile(s, 0.5))
		q90 = append(q90, quantile(s, 0.9))
		q99 = append(q99, quantile(s, 0.99))
	}
	return quietQuartile(q50, false), quietQuartile(q90, false), quietQuartile(q99, false)
}

// cpuNow is the process CPU time consumed so far, user plus system.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocsNow is the cumulative count of heap objects allocated.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapLiveMB is the live heap after two full collections: what the
// world holds, not what the last phase left lying around.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeCalls reports the median ns per call of fn over the given inputs
// and the mean heap allocations per call. fn is called once per index
// in [0, n); reps passes are made and the median pass is reported, so a
// single preemption does not decide the row.
func timeCalls(n, reps int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ { // warm caches and lazy set-up
		fn(i)
	}
	passes := make([]float64, 0, reps)
	m0 := mallocsNow()
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	allocs := float64(mallocsNow()-m0) / float64(n*reps)
	return median(passes), allocs
}
