package health

import (
	"fmt"
	"time"
)

// State is one rung of the ladder.
type State uint8

// States, in escalation order. Probation is the half-open state on the
// way back from Down: the owner has started a retry and the subject is
// accumulating consecutive successes; one failure sends it straight back
// to Down with a widened backoff.
const (
	Healthy State = iota
	Degraded
	Down
	Probation
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	case Probation:
		return "probation"
	default:
		return fmt.Sprintf("health(%d)", uint8(s))
	}
}

// Config tunes a Ladder. Owners keep their own option structs and build
// one of these per call with Or, so a zero owner field means the owner's
// default.
type Config struct {
	// Window is the number of recent outcomes in view, at most 64.
	Window int
	// Down and Degraded are the failure counts within Window that mark
	// the subject Down and Degraded.
	Down, Degraded int
	// Backoff is the retry delay on first going Down; it doubles on each
	// further failure before recovery, capped at BackoffMax.
	Backoff, BackoffMax time.Duration
	// Probation is how many consecutive successes close the ladder.
	Probation int
}

// Or returns c with every unset (zero or negative) field taken from def,
// Window clamped to 64, and an unset Degraded at half of Down (at least
// 1). def must set every other field.
func (c Config) Or(def Config) Config {
	if c.Window <= 0 {
		c.Window = def.Window
	}
	c.Window = min(c.Window, 64)
	if c.Down <= 0 {
		c.Down = def.Down
	}
	if c.Degraded <= 0 {
		c.Degraded = max(c.Down/2, 1)
	}
	if c.Backoff <= 0 {
		c.Backoff = def.Backoff
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = def.BackoffMax
	}
	if c.Probation <= 0 {
		c.Probation = def.Probation
	}
	return c
}

// Ladder is the healthy → degraded → down → probation → healthy state
// machine over a sliding outcome window: the middlebox supervisor's
// circuit breaker and the tunnel table's probe ladder. The zero value is
// Healthy with an empty window. Like Window it is not goroutine-safe.
type Ladder struct {
	win     Window
	state   State
	backoff time.Duration
	// probationLeft counts successes still needed to leave Probation.
	probationLeft int
}

// State reports the current rung.
func (l *Ladder) State() State { return l.state }

// Backoff is how long the owner should wait before its next retry: zero
// unless the ladder has gone Down since it was last Healthy.
func (l *Ladder) Backoff() time.Duration { return l.backoff }

// Record feeds one outcome in and returns the state after it, plus the
// failures in view that decided it (zero while Down or in Probation,
// where the window is empty and not consulted). Entering Down empties
// the window. While Down a failure — a lost probe, a failed restart —
// only widens the backoff and a success changes nothing: the owner
// decides when a retry begins and says so with BeginProbation.
func (l *Ladder) Record(ok bool, cfg Config) (State, int) {
	switch {
	case l.state == Probation && ok:
		if l.probationLeft--; l.probationLeft <= 0 {
			*l = Ladder{}
		}
		return l.state, 0
	case l.state == Probation || l.state == Down:
		if !ok {
			l.state, l.backoff = Down, min(2*l.backoff, cfg.BackoffMax)
		}
		return Down, 0
	}
	fails := l.win.Push(!ok, cfg.Window)
	switch {
	case ok:
		if l.state == Degraded && fails < cfg.Degraded {
			l.state = Healthy
		}
	case fails >= cfg.Down:
		l.state, l.backoff = Down, cfg.Backoff
		l.win.Clear()
	case fails >= cfg.Degraded && l.state == Healthy:
		l.state = Degraded
	}
	return l.state, fails
}

// BeginProbation moves a Down ladder to Probation: the owner's retry is
// under way and cfg.Probation consecutive successes will close it.
func (l *Ladder) BeginProbation(cfg Config) {
	l.state, l.probationLeft = Probation, cfg.Probation
}
