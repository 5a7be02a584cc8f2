package experiments

import "time"

// Stopwatch is the elapsed-time source for E11's per-packet cost sweep.
// Everything else in this package already runs on simulated clocks; the
// probes were the last wall-clock leak, which made the experiment *tables* a function
// of machine speed instead of the seed. The default is the
// deterministic SimStopwatch; real measurement is an explicit opt-in
// (pvnbench -wallclock), which is where EXPERIMENTS.md's recorded
// numbers come from.
type Stopwatch interface {
	// Start begins a measurement. The returned stop function reports
	// the elapsed time attributed to ops completed operations.
	Start() func(ops int) time.Duration
}

// SimStopwatch charges a fixed synthetic PerOp cost (default 1µs) per
// operation, so derived throughput cells are bit-identical across runs
// and machines. The numbers are placeholders by design: determinism
// tests can diff whole tables, and the experiment's structural findings
// (deploy counts, rule growth, memory) stay meaningful.
type SimStopwatch struct {
	PerOp time.Duration
}

func (s SimStopwatch) Start() func(int) time.Duration {
	per := s.PerOp
	if per <= 0 {
		per = time.Microsecond
	}
	return func(ops int) time.Duration {
		if ops < 1 {
			ops = 1
		}
		return time.Duration(ops) * per
	}
}

// WallStopwatch reads the process monotonic clock: the explicit
// measurement mode behind which all wall-clock timing in this package
// lives.
type WallStopwatch struct{}

func (WallStopwatch) Start() func(int) time.Duration {
	start := time.Now() //lint:allow nondet the explicit wall-clock measurement mode (pvnbench -wallclock); the default is synthetic (TestWallclockOnlyOnRequest)
	return func(int) time.Duration {
		return time.Since(start) //lint:allow nondet the explicit wall-clock measurement mode (pvnbench -wallclock); the default is synthetic (TestWallclockOnlyOnRequest)
	}
}

// timing returns sw, defaulting to the deterministic stopwatch.
func timing(sw Stopwatch) Stopwatch {
	if sw == nil {
		return SimStopwatch{}
	}
	return sw
}

// isWallclock reports whether sw measures real time — findings mention
// it so a reader of a deterministic table knows the per-packet cells
// are synthetic.
func isWallclock(sw Stopwatch) bool {
	_, ok := timing(sw).(WallStopwatch)
	return ok
}
