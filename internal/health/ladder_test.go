package health

import (
	"testing"
	"time"
)

// TestLadder scripts outcome streams against the Ladder alone. Each step
// is an outcome ('.' success, 'x' failure) or 'p' for the owner's
// BeginProbation, with the state and backoff expected after it.
func TestLadder(t *testing.T) {
	const ms = time.Millisecond
	cfg := Config{Window: 4, Down: 3, Degraded: 2, Backoff: 100 * ms, BackoffMax: 350 * ms, Probation: 2}
	type step struct {
		op      byte
		want    State
		backoff time.Duration
	}
	cases := []struct {
		name  string
		cfg   Config
		steps []step
	}{
		{"probation re-open widens, then the cap holds", cfg, []step{
			{'x', Healthy, 0}, {'x', Degraded, 0}, {'x', Down, 100 * ms},
			{'.', Down, 100 * ms}, // a success while Down is the owner's to interpret
			{'p', Probation, 100 * ms}, {'.', Probation, 100 * ms}, {'x', Down, 200 * ms},
			{'p', Probation, 200 * ms}, {'x', Down, 350 * ms},
			{'x', Down, 350 * ms}, // failed retry while Down: capped
			{'p', Probation, 350 * ms}, {'.', Probation, 350 * ms}, {'.', Healthy, 0},
			// Recovery forgot the old window and the old backoff.
			{'x', Healthy, 0}, {'x', Degraded, 0}, {'x', Down, 100 * ms},
		}},
		{"failed retries while Down double to the cap", cfg, []step{
			{'x', Healthy, 0}, {'x', Degraded, 0}, {'x', Down, 100 * ms},
			{'x', Down, 200 * ms}, {'x', Down, 350 * ms}, {'x', Down, 350 * ms},
		}},
		{"the window evicts at size", cfg, []step{
			// Two failures, then successes push them out one by one: the
			// third failure arrives with only one still in view.
			{'x', Healthy, 0}, {'x', Degraded, 0}, {'.', Degraded, 0}, {'.', Degraded, 0},
			{'.', Healthy, 0}, {'x', Healthy, 0}, {'.', Healthy, 0}, {'.', Healthy, 0},
			{'.', Healthy, 0}, {'.', Healthy, 0}, {'x', Healthy, 0},
		}},
		{"degraded recovers when failures leave the window", cfg, []step{
			{'x', Healthy, 0}, {'.', Healthy, 0}, {'x', Degraded, 0},
			{'.', Degraded, 0}, // x.x. → two in view
			{'.', Healthy, 0},  // .x.. → one in view
			{'x', Degraded, 0}, // x..x
		}},
		{"one probation success closes when Probation is 1",
			Config{Window: 8, Down: 2, Probation: 1}.Or(Config{Backoff: 40 * ms, BackoffMax: 80 * ms}), []step{
				{'x', Degraded, 0}, {'x', Down, 40 * ms}, {'p', Probation, 40 * ms}, {'.', Healthy, 0},
			}},
	}
	for _, tc := range cases {
		var l Ladder
		for i, s := range tc.steps {
			if s.op == 'p' {
				l.BeginProbation(tc.cfg)
			} else if got, _ := l.Record(s.op == '.', tc.cfg); got != l.State() {
				t.Fatalf("%s: step %d: Record returned %v, State() is %v", tc.name, i, got, l.State())
			}
			if l.State() != s.want || l.Backoff() != s.backoff {
				t.Fatalf("%s: step %d (%c): %v backoff %v, want %v backoff %v",
					tc.name, i, s.op, l.State(), l.Backoff(), s.want, s.backoff)
			}
		}
	}
}

// TestLadderFailsInView: Record reports the failure count that decided
// the transition, taken before entering Down empties the window.
func TestLadderFailsInView(t *testing.T) {
	cfg := Config{Window: 8, Down: 3, Degraded: 2, Backoff: 1, BackoffMax: 1, Probation: 1}
	var l Ladder
	for i, want := range []int{1, 1, 2, 3} {
		ok := i == 1
		if _, fails := l.Record(ok, cfg); fails != want {
			t.Fatalf("outcome %d: %d failures in view, want %d", i, fails, want)
		}
	}
	if _, fails := l.Record(false, cfg); l.State() != Down || fails != 0 {
		t.Fatalf("failure while Down: state %v, %d failures in view", l.State(), fails)
	}
}

// TestConfigOr: unset fields come from the owner's defaults, Degraded
// from Down, and Window is clamped to the ring's 64 bits.
func TestConfigOr(t *testing.T) {
	def := Config{Window: 32, Down: 8, Backoff: time.Second, BackoffMax: time.Minute, Probation: 8}
	if got, want := (Config{}).Or(def), (Config{Window: 32, Down: 8, Degraded: 4, Backoff: time.Second, BackoffMax: time.Minute, Probation: 8}); got != want {
		t.Fatalf("zero config resolved to %+v, want %+v", got, want)
	}
	got := Config{Window: 100, Down: 1, BackoffMax: time.Hour}.Or(def)
	want := Config{Window: 64, Down: 1, Degraded: 1, Backoff: time.Second, BackoffMax: time.Hour, Probation: 8}
	if got != want {
		t.Fatalf("partial config resolved to %+v, want %+v", got, want)
	}
}

// TestRecordDoesNotAllocate: the supervisor calls Record once per box per
// packet.
func TestRecordDoesNotAllocate(t *testing.T) {
	def := Config{Window: 32, Down: 8, Backoff: time.Second, BackoffMax: time.Minute, Probation: 8}
	var l Ladder
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		l.Record(i%5 != 0, Config{}.Or(def))
	}); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}
