package dataplane

import (
	"sync"

	"pvn/internal/openflow"
)

// DropPolicy selects what a full shard queue does with new packets.
type DropPolicy uint8

// Drop policies.
const (
	// DropNewest rejects the incoming packet (tail drop), the default:
	// overload degrades to loss, never to unbounded memory.
	DropNewest DropPolicy = iota
	// Block makes Submit wait for queue space — backpressure propagates
	// to the producer instead of dropping. Use only when the producer
	// can tolerate stalls (benchmarks, file replay).
	Block
)

// item is one queued packet. buf is the pooled backing array (carried
// as the same *[]byte the pool hands out, so recycling never allocates
// a fresh slice header); data is the live packet region within it.
// entry is what Submit resolved it to (nil: table miss), so the worker
// only finishes it; openflow.ActionsOf gives back its actions. A rule
// write since (gen no longer the table's) makes the worker resolve it
// again. hit and gen fill inPort's padding: the item stays 56 bytes.
type item struct {
	buf    *[]byte
	data   []byte
	entry  *openflow.FlowEntry
	inPort uint16
	hit    bool   // Resolve answered entry from the flow cache
	gen    uint32 // the table generation entry was resolved under, truncated
	enq    int64  // wall-clock ns at Submit; 0 = not latency-sampled
}

// ring is a bounded FIFO of packets feeding one shard's worker. A single
// mutex guards it, but workers amortize that cost by draining up to a
// whole batch per acquisition, and producers touch it once per packet
// push — the queue is the only synchronization point between producers
// and a shard.
type ring struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	items    []item
	head     int
	n        int
	closed   bool
	policy   DropPolicy
}

func newRing(depth int, policy DropPolicy) *ring {
	r := &ring{items: make([]item, depth), policy: policy}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// push enqueues one packet per the drop policy and reports whether it
// was admitted; on false the caller still owns the item's buffer.
func (r *ring) push(it item) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.policy == Block {
		for r.n == len(r.items) && !r.closed {
			r.notFull.Wait()
		}
	}
	if r.closed || r.n == len(r.items) {
		return false
	}
	r.items[(r.head+r.n)%len(r.items)] = it
	r.n++
	if r.n == 1 {
		r.notEmpty.Signal()
	}
	return true
}

// popBatch moves up to len(dst) items into dst, blocking while the ring
// is empty and open. A zero return means the ring is closed and drained.
func (r *ring) popBatch(dst []item) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	n := r.n
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = r.items[r.head]
		r.items[r.head] = item{}
		r.head = (r.head + 1) % len(r.items)
	}
	r.n -= n
	if n > 0 {
		r.notFull.Broadcast()
	}
	return n
}

// depth reports the current queue occupancy.
func (r *ring) depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// close wakes everyone; subsequent pushes fail and popBatch drains what
// remains, then returns 0.
func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
}
