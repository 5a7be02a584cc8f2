// Package health is the repo's one health ladder: the healthy → degraded
// → down → probation state machine (Ladder) over a sliding outcome
// window (Window) with capped exponential backoff. The middlebox
// supervisor's circuit breaker and the tunnel table's probe ladder are
// both callers; each keeps only what is its own (events, counters,
// restart times and fail policy; RTT scoring and probe cadence).
package health

// Window is a sliding window of the last size pass/fail outcomes, kept
// as a bitmask ring (so size is at most 64). The zero value is an empty
// window. It is not goroutine-safe; the owner serializes access.
type Window struct {
	// bits has bit i set when the outcome at ring slot i was a failure.
	bits      uint64
	pos, fill int
	fails     int
}

// Push records one outcome, evicting the oldest once size outcomes are
// in view, and returns the failure count now in view. size must not
// change between Clears.
func (w *Window) Push(fail bool, size int) int {
	bit := uint64(1) << uint(w.pos)
	if w.fill == size {
		if w.bits&bit != 0 {
			w.fails--
		}
	} else {
		w.fill++
	}
	if fail {
		w.bits |= bit
		w.fails++
	} else {
		w.bits &^= bit
	}
	w.pos = (w.pos + 1) % size
	return w.fails
}

// Clear empties the window.
func (w *Window) Clear() { *w = Window{} }
