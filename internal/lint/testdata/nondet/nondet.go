// Package nondet is pvnlint golden testdata: wall-clock and global-RNG
// leaks in a package configured as simulation-deterministic.
package nondet

import (
	"math/rand"
	"time"
)

func Elapsed() time.Duration {
	start := time.Now()          // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	return time.Since(start)     // want `time\.Since reads the wall clock`
}

func Wait(d time.Duration) <-chan time.Time {
	return time.After(d) // want `time\.After reads the wall clock`
}

// NowFunc leaks the wall clock as a value, not a call — still flagged.
var NowFunc = time.Now // want `time\.Now reads the wall clock`

func Jitter() time.Duration {
	return time.Duration(rand.Int63n(1000)) // want `math/rand\.Int63n uses the global generator`
}

func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand\.Shuffle uses the global generator`
}

// Tickers and timers tick by the wall clock: an exported API that builds
// one pins its callers to real cadence, and so does an unexported
// helper.
func PollLoop(interval time.Duration) *time.Ticker {
	return time.NewTicker(interval) // want `time\.NewTicker reads the wall clock`
}

func Deadline(d time.Duration) *time.Timer {
	return time.NewTimer(d) // want `time\.NewTimer reads the wall clock`
}

func Cadence(d time.Duration) <-chan time.Time {
	return time.Tick(d) // want `time\.Tick reads the wall clock`
}

type Prober struct{}

func (Prober) Run(d time.Duration) *time.Ticker {
	return time.NewTicker(d) // want `time\.NewTicker reads the wall clock`
}

func internalTick(d time.Duration) *time.Ticker {
	return time.NewTicker(d) // want `time\.NewTicker reads the wall clock`
}

// TakesClock is the conforming shape: cadence comes from the caller, so
// netsim can schedule it.
func TakesClock(now func() time.Duration, every time.Duration) time.Duration {
	return now() + every
}

// Seeded uses a locally-seeded generator: the project idiom, not flagged.
func Seeded() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

// Stamp is a deliberate exception with a reason: suppressed, not reported.
func Stamp() time.Time {
	return time.Now() //lint:allow nondet golden-file: annotated sites must not be reported
}

// DurationsOnly uses time's types and constants, which are fine.
func DurationsOnly(d time.Duration) time.Duration {
	return d + time.Millisecond
}

// PerfStamp is the module's perf-counter clock (Config.PerfClocks): its
// own read is annotated, and only the packages configured for it may
// call it.
func PerfStamp() int64 {
	return time.Now().UnixNano() //lint:allow nondet golden-file: the one annotated perf-counter read
}
