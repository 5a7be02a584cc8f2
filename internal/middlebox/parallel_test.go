package middlebox

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// seqBox is a stateful box with plain (unsynchronized) fields, so the
// race detector sees any two Process calls on one owner that overlap.
// It alerts its running count on every packet, drops every fifth and
// returns an error on every seventh (fail-open: the packet survives).
type seqBox struct{ n int }

func (*seqBox) Name() string { return "seq" }
func (b *seqBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	b.n++
	ctx.Alert("seq", strconv.Itoa(b.n))
	switch {
	case b.n%5 == 0:
		return nil, VerdictDrop, nil
	case b.n%7 == 0:
		return nil, VerdictPass, errors.New("seventh")
	}
	return data, VerdictPass, nil
}
func (b *seqBox) ExportState() ([]byte, error) { return []byte(strconv.Itoa(b.n)), nil }
func (b *seqBox) ImportState(data []byte) error {
	n, err := strconv.Atoi(string(data))
	b.n = n
	return err
}

// TestParallelOwnersExactCounters drives chains of distinct owners and of
// one shared owner from many goroutines while the control plane churns
// another owner's instances and chains and exports the traffic owners'
// state. Whatever interleaving the scheduler picks, every owner's boxes
// must have run strictly one packet at a time: counters exact, alerts
// 1..n in order, events delivered to a hook that keeps plain state. Run
// with -race.
func TestParallelOwnersExactCounters(t *testing.T) {
	const (
		distinct      = 4
		sharedWorkers = 3
		packets       = 420 // per goroutine; a multiple of 5 and 7
	)
	now := time.Duration(0)
	rt := testRuntime(&now)
	rt.Supervisor.BreakerThreshold = 64 // one fault in seven never opens it
	rt.Register(&Spec{Type: "seq", FailPolicy: FailOpen, New: func(map[string]string) (Box, error) { return &seqBox{}, nil }})
	events := 0 // plain: OnEvent calls are serialized
	rt.OnEvent = func(SupEvent) { events++ }

	type load struct {
		owner   string
		workers int
		inst    *Instance
	}
	loads := make([]*load, 0, distinct+1)
	for i := 0; i < distinct; i++ {
		loads = append(loads, &load{owner: fmt.Sprintf("d%d", i), workers: 1})
	}
	loads = append(loads, &load{owner: "shared", workers: sharedWorkers})
	for _, l := range loads {
		inst, err := rt.Instantiate(l.owner, "seq", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BuildChain(l.owner, "c", []string{inst.ID}, nil); err != nil {
			t.Fatal(err)
		}
		l.inst = inst
	}
	boot(&now) // not written again: executions read it concurrently

	var traffic sync.WaitGroup
	for _, l := range loads {
		for w := 0; w < l.workers; w++ {
			traffic.Add(1)
			go func(chain string) {
				defer traffic.Done()
				for i := 0; i < packets; i++ {
					rt.ExecuteChain(chain, []byte("pkt"))
				}
			}(l.owner + "/c")
		}
	}

	// The control plane, until the traffic is done: one owner attached
	// and detached both ways, and the busy owners' state exported.
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			a, err1 := rt.Instantiate("churn", "pass", nil)
			b, err2 := rt.Instantiate("churn", "pass", nil)
			if err1 != nil || err2 != nil {
				t.Errorf("churn instantiate: %v %v", err1, err2)
				return
			}
			if _, err := rt.BuildChainIn("churn", "churn.ns", "c", []string{a.ID, b.ID}, nil); err != nil {
				t.Errorf("churn chain: %v", err)
				return
			}
			rt.ExecuteChain("churn.ns/c", []byte("pkt"))
			if err := rt.Terminate(a.ID); err != nil {
				t.Errorf("churn terminate: %v", err)
			}
			if round%2 == 0 {
				rt.RemoveChain("churn.ns", "c")
				if err := rt.Terminate(b.ID); err != nil {
					t.Errorf("churn terminate: %v", err)
				}
			} else if n := rt.TeardownUser("churn"); n != 1 {
				t.Errorf("churn teardown released %d instances, want 1", n)
			}
			for _, l := range loads {
				if _, ok, err := rt.ExportState(l.inst.ID); !ok || err != nil {
					t.Errorf("export %s: ok=%v err=%v", l.inst.ID, ok, err)
				}
			}
		}
	}()
	traffic.Wait()
	close(stop)
	<-churned

	wantEvents := 0
	for _, l := range loads {
		n := int64(l.workers * packets)
		inst := rt.Instance(l.inst.ID) // exclusive lock: every execution is visible
		faults := n/7 - n/35           // every seventh, unless the fifth rule dropped it first
		if inst.Packets != n || inst.Drops != n/5 || inst.Errors != faults || inst.Bypasses != faults {
			t.Errorf("%s: packets=%d drops=%d errors=%d bypasses=%d, want %d %d %d %d",
				l.owner, inst.Packets, inst.Drops, inst.Errors, inst.Bypasses, n, n/5, faults, faults)
		}
		wantEvents += 2 * int(faults) // box-error + bypass
		alerts := rt.Alerts(l.owner)
		if len(alerts) != int(n) {
			t.Errorf("%s: %d alerts, want %d", l.owner, len(alerts), n)
			continue
		}
		for i, a := range alerts {
			if a.Detail != strconv.Itoa(i+1) {
				t.Errorf("%s: alert %d says %q: one owner's alerts out of order", l.owner, i, a.Detail)
				break
			}
		}
	}
	if events != wantEvents {
		t.Errorf("OnEvent saw %d events, want %d", events, wantEvents)
	}

	// Owner churn must not grow the runtime: the churn owner's lock left
	// with its last instance or chain, and the rest go with theirs.
	if _, ok := rt.owners["churn"]; ok {
		t.Error("churn owner's lock outlived its instances and chains")
	}
	for _, l := range loads {
		rt.TeardownUser(l.owner)
	}
	if len(rt.owners) != 0 || rt.MemoryUsed() != 0 {
		t.Errorf("%d owner locks and %d bytes left after every owner was torn down", len(rt.owners), rt.MemoryUsed())
	}
}

// TestOwnerLockRefcount walks one owner's lock through every way an
// instance or chain can come and go.
func TestOwnerLockRefcount(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	held := func() int {
		if l := rt.owners["u"]; l != nil {
			return l.refs
		}
		return 0
	}
	a, _ := rt.Instantiate("u", "pass", nil)
	b, _ := rt.Instantiate("u", "pass", nil)
	if _, err := rt.BuildChain("u", "c", []string{a.ID, b.ID}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("u", "c", []string{a.ID}, nil); !errors.Is(err, ErrDuplicateChain) {
		t.Fatalf("duplicate chain: %v", err)
	}
	if _, err := rt.BuildChain("u", "bad", []string{"nope"}, nil); !errors.Is(err, ErrInstanceunknown) {
		t.Fatalf("bad chain: %v", err)
	}
	if held() != 3 {
		t.Fatalf("refs %d after two instances and one chain (failed builds must not count), want 3", held())
	}
	rt.RemoveChain("u", "missing")
	rt.Terminate(a.ID)
	rt.Terminate(a.ID) // unknown now: no second release
	if held() != 2 {
		t.Fatalf("refs %d, want 2", held())
	}
	rt.Terminate(b.ID)
	if held() != 1 {
		t.Fatalf("an empty chain must keep the owner's lock; refs %d", held())
	}
	rt.RemoveChain("u", "c")
	if len(rt.owners) != 0 {
		t.Fatalf("owner lock survived its last chain: %v", rt.owners)
	}
}
