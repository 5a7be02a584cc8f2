package middlebox

import (
	"sync"
	"testing"
	"time"
)

// syncAlertBox records an alert per packet — the worst case for
// concurrent chain execution, since alerts funnel into shared runtime
// state.
type syncAlertBox struct{}

func (syncAlertBox) Name() string { return "alert" }
func (syncAlertBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	ctx.Alert("test", "per-packet finding")
	return data, VerdictPass, nil
}

// TestSyncExecutorConcurrent is the regression test for the dataplane
// concurrency contract: a Runtime shared by many workers serializes
// one owner's chain itself, through Synchronized or not. Run with -race.
func TestSyncExecutorConcurrent(t *testing.T) {
	rt := NewRuntime(nil)
	rt.Register(&Spec{Type: "alert", New: func(map[string]string) (Box, error) { return syncAlertBox{}, nil }})
	inst, err := rt.Instantiate("u", "alert", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("u", "c", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	rt.Now = func() time.Duration { return time.Second } // everything booted

	exec := Synchronized(rt)
	const workers, packets = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				if _, _, err := exec.ExecuteChain("u/c", []byte("pkt")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := inst.Packets; got != workers*packets {
		t.Errorf("instance packets = %d, want %d", got, workers*packets)
	}
	if got := len(rt.Alerts("u")); got != workers*packets {
		t.Errorf("alerts = %d, want %d", got, workers*packets)
	}
	if exec.Runtime() != rt {
		t.Error("Runtime() accessor broken")
	}
}
