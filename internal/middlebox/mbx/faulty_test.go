package mbx

import (
	"fmt"
	"testing"
	"time"

	"pvn/internal/middlebox"
)

// TestFaultyStallKeepsDraws: a slow call stalls the real goroutine and
// changes nothing else. One seed gives the same verdicts, outputs,
// errors and injection counts whether each stall lasts a microsecond or
// a millisecond, so the wall-clock sleep in Process reaches timings
// only.
func TestFaultyStallKeepsDraws(t *testing.T) {
	run := func(stall time.Duration) string {
		f := NewFaultyBox(nil, FaultPlan{ErrorRate: 0.2, CorruptRate: 0.2, SlowRate: 0.5, SlowDelay: stall}, 7)
		var trace string
		for i := 0; i < 40; i++ {
			out, v, err := f.Process(&middlebox.Context{}, []byte{byte(i), 1, 2, 3})
			trace += fmt.Sprintf("%x/%v/%v;", out, v, err)
		}
		if f.Injected.Slows == 0 {
			t.Fatalf("no slow call in 40 at rate 0.5")
		}
		return trace + fmt.Sprintf("%+v", f.Injected)
	}
	if short, long := run(time.Microsecond), run(time.Millisecond); short != long {
		t.Fatalf("stall length changed the run:\n%s\n%s", short, long)
	}
}
