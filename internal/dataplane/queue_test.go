package dataplane

// Concurrency hammers for the shard ring — the one synchronization
// point between producers and a worker. Run under -race; the Block
// cases specifically exercise producers parked in notFull.Wait racing a
// close, the shutdown interleaving a live pipeline hits every time a
// benchmark or pvnd instance stops under load.

import (
	"sync"
	"sync/atomic"
	"testing"
)

func testItem(seq int) item {
	b := []byte{byte(seq), byte(seq >> 8)}
	return item{buf: &b, data: b}
}

// TestRingBlockCloseRace parks producers in the Block policy's
// notFull.Wait and races close() against them: every blocked push must
// return (admitted before the close won, or rejected after), no
// goroutine may stay parked, and the drain must account for every
// admitted item exactly once.
func TestRingBlockCloseRace(t *testing.T) {
	const producers = 8
	const perProducer = 500
	for round := 0; round < 10; round++ {
		r := newRing(4, Block)
		var admitted, rejected atomic.Int64
		var wg sync.WaitGroup
		for pr := 0; pr < producers; pr++ {
			wg.Add(1)
			go func(pr int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					ok := r.push(testItem(pr*perProducer + i))
					if ok {
						admitted.Add(1)
					} else {
						rejected.Add(1)
					}
				}
			}(pr)
		}

		var popped atomic.Int64
		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			batch := make([]item, 3)
			for {
				n := r.popBatch(batch)
				if n == 0 {
					return
				}
				popped.Add(int64(n))
			}
		}()

		// Close mid-stream: with a depth-4 ring and 8 producers, some
		// are parked in notFull.Wait right now.
		for popped.Load() < 64 {
		}
		r.close()
		wg.Wait()  // no producer may remain parked after close
		cwg.Wait() // consumer drains the residue and sees the close

		if got := admitted.Load() + rejected.Load(); got != producers*perProducer {
			t.Fatalf("round %d: %d pushes accounted, want %d", round, got, producers*perProducer)
		}
		if admitted.Load() != popped.Load() {
			t.Fatalf("round %d: admitted %d but popped %d — items lost or duplicated across close",
				round, admitted.Load(), popped.Load())
		}
	}
}

// TestRingHammerDropPolicies runs the same producer/consumer storm over
// both policies, checking conservation: every push is admitted or
// rejected, and every admitted item is popped.
func TestRingHammerDropPolicies(t *testing.T) {
	for _, policy := range []DropPolicy{DropNewest, Block} {
		r := newRing(8, policy)
		var admitted, rejected, popped int64
		var mu sync.Mutex // guards the tallies updated by producers
		var wg sync.WaitGroup
		for pr := 0; pr < 4; pr++ {
			wg.Add(1)
			go func(pr int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					ok := r.push(testItem(pr*2000 + i))
					mu.Lock()
					if ok {
						admitted++
					} else {
						rejected++
					}
					mu.Unlock()
				}
			}(pr)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			batch := make([]item, 5)
			for {
				n := r.popBatch(batch)
				if n == 0 {
					return
				}
				mu.Lock()
				popped += int64(n)
				mu.Unlock()
			}
		}()
		wg.Wait()
		r.close()
		<-done

		if admitted+rejected != 8000 || admitted != popped {
			t.Fatalf("policy %d: admitted %d + rejected %d of 8000 pushes, popped %d",
				policy, admitted, rejected, popped)
		}
		if policy == Block && rejected != 0 {
			t.Fatalf("Block rejected %d pushes on an open ring", rejected)
		}
	}
}
