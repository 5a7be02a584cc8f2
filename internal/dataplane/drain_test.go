package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor yields until cond holds, failing the test if it has not
// within a few seconds. It polls: the conditions it serves (a goroutine
// parked in Drain, goroutines gone) have no event to wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestDrainStress: producers submit, and Drain between their bursts,
// while other goroutines Drain in a loop and a Stop races them all, under
// both drop policies. Every Drain returns, and only once each packet
// whose Submit returned before the Drain began is processed or counted
// dropped; afterwards the books balance and no goroutine is left.
func TestDrainStress(t *testing.T) {
	const producers, drainers, perProducer = 3, 2, 300
	pkts := frames(t, 64, 80)
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		policy := DropPolicy(round % 2)
		p := New(Config{Shards: 3, QueueDepth: 16, BatchSize: 4, Policy: policy})
		installRules(t, p.Table())
		p.Start()

		var submitted atomic.Int64 // Submits that have returned
		var running atomic.Int32   // producers still submitting
		running.Store(producers)
		drain := func() {
			want := submitted.Load()
			p.Drain()
			if st := p.Stats().Total(); st.Processed+st.Dropped < want {
				t.Errorf("round %d: Drain returned with %d processed + %d dropped, %d submitted before it",
					round, st.Processed, st.Dropped, want)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				defer running.Add(-1)
				for i := 0; i < perProducer; i++ {
					p.Submit(pkts[(g*perProducer+i)%len(pkts)], 0)
					submitted.Add(1)
					if i%50 == 49 {
						drain()
					}
				}
			}(g)
		}
		for g := 0; g < drainers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for running.Load() > 0 {
					drain()
					runtime.Gosched()
				}
				drain()
			}()
		}
		stopAt := int64(100 + round*37)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for submitted.Load() < stopAt {
				runtime.Gosched()
			}
			p.Stop()
		}()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a producer, Drain or Stop hung", round)
		}
		p.Drain()
		st := p.Stats().Total()
		if st.Enqueued != producers*perProducer || st.Enqueued != st.Processed+st.Dropped {
			t.Fatalf("round %d (%v): enqueued %d, processed %d, dropped %d; want %d = processed + dropped",
				round, policy, st.Enqueued, st.Processed, st.Dropped, producers*perProducer)
		}
	}
	waitFor(t, "the pipeline's and the test's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestDrainWaitsForHeldOutput: the worker's hook is part of a packet's
// processing, so while OnOutput holds the last packet Drain stays
// parked, and it returns once the hook lets the packet go.
func TestDrainWaitsForHeldOutput(t *testing.T) {
	const n = 10
	pkts := frames(t, n, 80)
	held, release := make(chan struct{}), make(chan struct{})
	var outputs atomic.Int32
	p := New(Config{Shards: 1, BatchSize: 4, OnOutput: func(uint16, []byte) {
		if outputs.Add(1) == n {
			close(held)
			<-release
		}
	}})
	installRules(t, p.Table())
	p.Start()
	defer p.Stop()
	for _, f := range pkts {
		if !p.Submit(f, 0) {
			t.Fatal("running pipeline rejected a packet")
		}
	}
	<-held
	drained := make(chan struct{})
	go func() { p.Drain(); close(drained) }()
	waitFor(t, "Drain to park", func() bool { return p.drainers.Load() == 1 })
	select {
	case <-drained:
		t.Fatal("Drain returned while OnOutput held the last packet")
	default:
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last packet was released")
	}
	if st := p.Stats().Total(); st.Processed != n {
		t.Fatalf("processed %d after Drain, want %d", st.Processed, n)
	}
}
