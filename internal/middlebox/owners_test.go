package middlebox

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// checkOwnerLists verifies the owner entries against the chain map:
// every listed chain is the one filed under its key, listed once, on
// its own owner's entry, and every filed chain is listed.
func checkOwnerLists(t *testing.T, rt *Runtime) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	listed := map[*Chain]bool{}
	for name, o := range rt.owners {
		for _, c := range o.chains {
			if listed[c] {
				t.Errorf("chain %s listed twice", c.key)
			}
			listed[c] = true
			if rt.chains[c.key] != c || c.Owner != name || c.owner != o {
				t.Errorf("owner %q lists chain %s, which is not its live chain under that key", name, c.key)
			}
		}
	}
	if len(listed) != len(rt.chains) {
		t.Errorf("%d chains listed on owner entries, %d filed", len(listed), len(rt.chains))
	}
}

// TestTerminateScopedToOwner: one owner's two chains share a fail-closed
// box. Terminating it marks the residue on both, visiting only that
// owner's chains, and leaves another owner's chain as it was; removing
// the chains takes them off the owner's list, and the entry goes with
// the last instance.
func TestTerminateScopedToOwner(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	shared, _ := rt.Instantiate("alice", "pass", nil) // FailClosed by default
	tagged, _ := rt.Instantiate("alice", "pass", map[string]string{"tag": "A"})
	both, err1 := rt.BuildChainIn("alice", "alice.dev1", "both", []string{shared.ID, tagged.ID}, nil)
	only, err2 := rt.BuildChainIn("alice", "alice.dev1", "only", []string{shared.ID}, nil)
	bobBox, _ := rt.Instantiate("bob", "pass", nil)
	bob, err3 := rt.BuildChain("bob", "c", []string{bobBox.ID}, nil)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	if shared.Policy != FailClosed {
		t.Fatalf("shared box policy %v, want fail-closed", shared.Policy)
	}
	boot(&now)

	visits := rt.chainVisits
	if err := rt.Terminate(shared.ID); err != nil {
		t.Fatal(err)
	}
	if got := rt.chainVisits - visits; got != 2 {
		t.Errorf("Terminate visited %d chains, want alice's 2", got)
	}
	if !both.residueClosed || !only.residueClosed {
		t.Errorf("residue: both=%v only=%v, want both set", both.residueClosed, only.residueClosed)
	}
	if len(both.Boxes) != 1 || both.Boxes[0] != tagged || len(only.Boxes) != 0 {
		t.Errorf("after Terminate: both has %d boxes, only %d", len(both.Boxes), len(only.Boxes))
	}
	if bob.residueClosed || len(bob.Boxes) != 1 {
		t.Errorf("bob's chain touched: residue=%v boxes=%d", bob.residueClosed, len(bob.Boxes))
	}
	pkt := ipPacket(t, "10.0.0.1", "10.0.0.2")
	if _, _, err := rt.ExecuteChain("alice.dev1/only", pkt); !errors.Is(err, ErrDropped) {
		t.Errorf("emptied fail-closed chain: %v, want ErrDropped", err)
	}
	if out, _, err := rt.ExecuteChain("alice.dev1/both", pkt); err != nil || out[len(out)-1] != 'A' {
		t.Errorf("chain that kept a box: err %v", err)
	}
	if _, _, err := rt.ExecuteChain("bob/c", pkt); err != nil {
		t.Errorf("bob's chain: %v", err)
	}
	checkOwnerLists(t, rt)

	rt.RemoveChain("alice.dev1", "only")
	if l := rt.owners["alice"].chains; len(l) != 1 || l[0] != both {
		t.Fatalf("alice's list after RemoveChain: %d chains, want just %q", len(l), both.key)
	}
	checkOwnerLists(t, rt)
	visits = rt.chainVisits
	rt.Terminate(tagged.ID)
	if got := rt.chainVisits - visits; got != 1 {
		t.Errorf("Terminate visited %d chains, want the one alice has left", got)
	}
	rt.RemoveChain("alice.dev1", "both")
	if _, ok := rt.owners["alice"]; ok {
		t.Error("alice's entry outlived her last instance and chain")
	}
	checkOwnerLists(t, rt)
}

// TestOwnersEmptyAfterChurn: owners attach several chains over shared
// boxes and leave by every route — Terminate before or after
// RemoveChain, or TeardownUser — and the runtime ends with no owner
// entry, chain, instance or memory left.
func TestOwnersEmptyAfterChurn(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			owner := fmt.Sprintf("u%d", i)
			ns := fmt.Sprintf("%s.r%d", owner, round)
			a, _ := rt.Instantiate(owner, "pass", nil)
			b, _ := rt.Instantiate(owner, "pass", map[string]string{"fail": "open"})
			for c, ids := range [][]string{{a.ID, b.ID}, {a.ID}, {b.ID}} {
				if _, err := rt.BuildChainIn(owner, ns, fmt.Sprint(c), ids, nil); err != nil {
					t.Fatal(err)
				}
			}
			checkOwnerLists(t, rt)
			switch i % 3 {
			case 0:
				rt.Terminate(a.ID)
				rt.Terminate(b.ID)
				for c := 0; c < 3; c++ {
					rt.RemoveChain(ns, fmt.Sprint(c))
				}
			case 1:
				for c := 2; c >= 0; c-- {
					rt.RemoveChain(ns, fmt.Sprint(c))
				}
				rt.Terminate(b.ID)
				rt.Terminate(a.ID)
			default:
				if n := rt.TeardownUser(owner); n != 2 {
					t.Fatalf("TeardownUser(%s) released %d instances, want 2", owner, n)
				}
			}
			checkOwnerLists(t, rt)
		}
	}
	if len(rt.owners) != 0 || len(rt.chains) != 0 || len(rt.instances) != 0 || rt.MemoryUsed() != 0 {
		t.Fatalf("after churn: %d owner entries, %d chains, %d instances, %d bytes", len(rt.owners), len(rt.chains), len(rt.instances), rt.MemoryUsed())
	}
}

// TestTerminateWorkIsTenantSized: the chains Terminate examines are the
// owner's own — the same count with 10² residents on the host as with
// 10⁴.
func TestTerminateWorkIsTenantSized(t *testing.T) {
	var work []int
	for _, residents := range []int{100, 10000} {
		now := time.Duration(0)
		rt := testRuntime(&now)
		rt.MemoryCapBytes = (residents + 2) * DefaultMemoryBytes
		for i := 0; i < residents; i++ {
			owner := fmt.Sprintf("r%d", i)
			inst, err := rt.Instantiate(owner, "pass", nil)
			if err != nil {
				t.Fatal(err)
			}
			rt.BuildChain(owner, "c", []string{inst.ID}, nil)
		}
		a, _ := rt.Instantiate("visitor", "pass", nil)
		b, _ := rt.Instantiate("visitor", "pass", nil)
		rt.BuildChainIn("visitor", "visitor.dev", "c", []string{a.ID, b.ID}, nil)
		before := rt.chainVisits
		rt.Terminate(a.ID)
		rt.Terminate(b.ID)
		rt.RemoveChain("visitor.dev", "c")
		work = append(work, rt.chainVisits-before)
	}
	if work[0] != work[1] || work[0] != 2 {
		t.Errorf("a visitor's teardown visited %d chains at 10² residents, %d at 10⁴; want 2 at both", work[0], work[1])
	}
}

// TestOwnerListsUnderTraffic runs the control plane's owner-list writes
// — BuildChainIn, Terminate, RemoveChain, TeardownUser — for churning
// owners while other owners' chains execute on other goroutines, for as
// long as the churn lasts. The resident owners' traffic must be
// untouched and the lists must end consistent. Run with -race (make
// test-race).
func TestOwnerListsUnderTraffic(t *testing.T) {
	const residents, rounds = 3, 200
	now := time.Duration(0)
	rt := testRuntime(&now)
	for i := 0; i < residents; i++ {
		owner := fmt.Sprintf("res%d", i)
		inst, _ := rt.Instantiate(owner, "pass", nil)
		if _, err := rt.BuildChain(owner, "c", []string{inst.ID}, nil); err != nil {
			t.Fatal(err)
		}
	}
	boot(&now) // not written again: executions read it concurrently
	pkt := ipPacket(t, "10.0.0.1", "10.0.0.2")

	stop := make(chan struct{})
	sent := make([]int64, residents)
	var traffic sync.WaitGroup
	for i := 0; i < residents; i++ {
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			chain := fmt.Sprintf("res%d/c", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := rt.ExecuteChain(chain, pkt); err != nil {
					t.Errorf("%s: %v", chain, err)
					return
				}
				sent[i]++
			}
		}(i)
	}
	for round := 0; round < rounds; round++ {
		owner := fmt.Sprintf("churn%d", round%4)
		ns := fmt.Sprintf("%s.%d", owner, round)
		a, _ := rt.Instantiate(owner, "pass", nil)
		b, _ := rt.Instantiate(owner, "pass", nil)
		rt.BuildChainIn(owner, ns, "x", []string{a.ID, b.ID}, nil)
		rt.BuildChainIn(owner, ns, "y", []string{a.ID}, nil)
		rt.ExecuteChain(ns+"/x", pkt)
		rt.Terminate(a.ID)
		rt.RemoveChain(ns, "y")
		if round%3 == 0 {
			rt.TeardownUser(owner)
			continue
		}
		rt.Terminate(b.ID)
		rt.RemoveChain(ns, "x")
	}
	close(stop)
	traffic.Wait()

	checkOwnerLists(t, rt)
	for i := 0; i < residents; i++ {
		owner := fmt.Sprintf("res%d", i)
		if insts := rt.InstancesOf(owner); len(insts) != 1 || insts[0].Packets != sent[i] {
			t.Errorf("%s: %d instances, want 1 that counted the %d packets sent", owner, len(insts), sent[i])
		}
		rt.TeardownUser(owner)
	}
	if len(rt.owners) != 0 || len(rt.chains) != 0 {
		t.Errorf("%d owner entries and %d chains left after every owner left", len(rt.owners), len(rt.chains))
	}
}
