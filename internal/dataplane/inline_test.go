package dataplane

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// gateChains is a chain executor that passes its first free packets
// unchanged, and holds every later one until open is closed.
type gateChains struct {
	free atomic.Int64
	open chan struct{}
}

func (g *gateChains) ExecuteChain(_ string, data []byte) ([]byte, time.Duration, error) {
	if g.free.Add(-1) < 0 {
		<-g.open
	}
	return data, 0, nil
}

// seqFrame is one packet of a single TCP flow to dport, carrying seq in
// its payload.
func seqFrame(t testing.TB, dport uint16, seq uint32) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	var pl [4]byte
	binary.BigEndian.PutUint32(pl[:], seq)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(pl[:]))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInlineKeepsOrderAcrossRuleWrite: a chain flow's first packet (a
// cache miss) finishes in Submit, and its next ones queue behind the
// chain, which holds the second; a rule write then makes the flow
// chain-free mid-stream. Its later packets resolve chain-free but must
// not finish in Submit ahead of the queued ones (which the worker
// resolves again, chain-free too): the flow leaves in Submit order.
// Once the shard is empty again, the next packet finishes in Submit.
func TestInlineKeepsOrderAcrossRuleWrite(t *testing.T) {
	const queued, after = 10, 10
	gate := &gateChains{open: make(chan struct{})}
	gate.free.Store(1)
	var mu sync.Mutex
	var order []uint32
	p := New(Config{Shards: 1, Chains: gate, OnOutput: func(_ uint16, data []byte) {
		mu.Lock()
		order = append(order, binary.BigEndian.Uint32(data[len(data)-4:]))
		mu.Unlock()
	}})
	p.Table().Install(&openflow.FlowEntry{Priority: 10, Match: dportMatch(8080), Cookie: 1,
		Actions: []openflow.Action{openflow.ToMiddlebox("g"), openflow.Output(1)}}, 0)
	p.Start()
	defer p.Stop()

	seq := uint32(0)
	for ; seq < queued; seq++ {
		p.Submit(seqFrame(t, 8080, seq), 0)
	}
	for gate.free.Load() >= 0 { // packet 1 is in the chain
		runtime.Gosched()
	}
	p.Table().Install(&openflow.FlowEntry{Priority: 20, Match: dportMatch(8080), Cookie: 2,
		Actions: []openflow.Action{openflow.Output(1)}}, 0)
	for ; seq < queued+after; seq++ {
		if !p.Submit(seqFrame(t, 8080, seq), 0) {
			t.Fatalf("packet %d rejected", seq)
		}
	}
	if st := p.Stats().Total(); st.Inline != 1 || st.Outputs != 1 {
		t.Fatalf("with the chain holding the flow: %d finished in Submit, %d output; want 1, 1", st.Inline, st.Outputs)
	}
	close(gate.open)
	p.Drain()
	if !p.Submit(seqFrame(t, 8080, seq), 0) {
		t.Fatal("last packet rejected")
	}
	st := p.Stats().Total()
	if st.Inline != 2 || st.Outputs != queued+after+1 {
		t.Errorf("after the drain: %d finished in Submit, %d output; want 2, %d", st.Inline, st.Outputs, queued+after+1)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range order {
		if s != uint32(i) {
			t.Fatalf("output order %v: packet %d left at position %d", order, s, i)
		}
	}
}

// TestStopWaitsForInlineHooks races Submits — chain-free ones finishing
// in Submit and chain ones queued — against Stop: no hook may run, even
// in part, after Stop has returned. Run under -race it also holds the
// shard switch's mutex to guarding the flow cache.
func TestStopWaitsForInlineHooks(t *testing.T) {
	pkts := frames(t, 64, 80, 8080, 9999)
	for round := 0; round < 20; round++ {
		var stopped atomic.Bool
		var hooks atomic.Int64
		hook := func() {
			if stopped.Load() {
				t.Error("a hook started after Stop returned")
			}
			hooks.Add(1)
			runtime.Gosched()
			if stopped.Load() {
				t.Error("a hook was still running when Stop returned")
			}
		}
		p := New(Config{Shards: 2, QueueDepth: 16, Chains: buildRuntime(t),
			OnOutput:     func(uint16, []byte) { hook() },
			OnController: func(uint16, []byte) { hook() },
		})
		installRules(t, p.Table())
		p.Start()
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; !stopped.Load(); i++ {
					p.Submit(pkts[(g+i)%len(pkts)], 0)
				}
			}(g)
		}
		for hooks.Load() < int64(50+round*10) {
			runtime.Gosched()
		}
		p.Stop()
		stopped.Store(true)
		wg.Wait()
		if st := p.Stats().Total(); st.Inline == 0 || st.Inline == st.Processed {
			t.Fatalf("round %d: %d of %d packets finished in Submit; the race needs both paths", round, st.Inline, st.Processed)
		}
	}
}

// TestHookResubmits: a hook that calls Submit again completes, both
// when it runs in Submit (the shard's mutex is not held across it) and
// when it runs on a worker. A table miss is never cached, so all its
// rounds finish in Submit; the chain flow's first round does (a cache
// miss) and its re-Submits, cached, queue to the worker.
func TestHookResubmits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dport  uint16
		inline int64
	}{{"in Submit", 9999, 3}, {"on a worker", 8080, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			const depth = 3
			var p *Pipeline
			var punts atomic.Int64
			p = New(Config{Shards: 1, Chains: buildRuntime(t), OnController: func(_ uint16, data []byte) {
				if punts.Add(1) < depth {
					p.Submit(data, 0)
				}
			}})
			// dport 9999 misses the table; 8080 runs the chain, then punts.
			p.Table().Install(&openflow.FlowEntry{Match: dportMatch(8080), Cookie: 1,
				Actions: []openflow.Action{openflow.ToMiddlebox("u/c"), openflow.ToController()}}, 0)
			p.Start()
			defer p.Stop()
			done := make(chan struct{})
			go func() {
				p.Submit(seqFrame(t, tc.dport, 0), 0)
				p.Drain()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a hook that Submits again did not complete")
			}
			st := p.Stats().Total()
			if st.PacketIns != depth || st.Processed != depth {
				t.Errorf("punts %d, processed %d; want %d each", st.PacketIns, st.Processed, depth)
			}
			if st.Inline != tc.inline {
				t.Errorf("%d of %d finished in Submit, want %d", st.Inline, st.Processed, tc.inline)
			}
		})
	}
}

// TestRuleBillsOnlyRunPackets: a rule's counters, which deployserver
// bills a subscriber from, count only the packets the pipeline ran on
// it, and so does CacheHits — not the ones it resolved and then dropped
// at a full queue before Start, nor the ones Submitted after Stop.
func TestRuleBillsOnlyRunPackets(t *testing.T) {
	pkts := frames(t, 1) // one flow, dport 80: one shard, one rule
	p := New(Config{Shards: 1, QueueDepth: 4, Policy: DropNewest})
	rule := &openflow.FlowEntry{Match: dportMatch(80), Actions: []openflow.Action{openflow.Output(1)}}
	p.Table().Install(rule, 0)
	billed := func(what string, procWant int64) {
		t.Helper()
		st := p.Stats().Total()
		pk, by := rule.Stats()
		if st.Processed != procWant || pk != procWant || by != procWant*int64(len(pkts[0])) {
			t.Fatalf("%s: processed %d, rule billed %d packets / %d bytes; want %d / %d", what, st.Processed, pk, by, procWant, procWant*int64(len(pkts[0])))
		}
		// The first packet missed the flow cache; every later one hit.
		if st.CacheHits != procWant-1 && !(procWant == 0 && st.CacheHits == 0) {
			t.Fatalf("%s: %d cache hits over %d processed packets, want %d", what, st.CacheHits, st.Processed, procWant-1)
		}
	}
	for i := 0; i < 10; i++ { // not started: 4 queued, 6 tail-dropped
		p.Submit(pkts[0], 0)
	}
	billed("before Start", 0)
	p.Start()
	p.Drain()
	billed("after the drain", 4)
	p.Stop()
	for i := 0; i < 3; i++ {
		if p.Submit(pkts[0], 0) {
			t.Fatal("Submit admitted a packet after Stop")
		}
	}
	billed("after Stop", 4)
	if st := p.Stats().Total(); st.Dropped != 9 {
		t.Fatalf("dropped %d, want 9", st.Dropped)
	}
}

// TestQueuedPacketsSeeRuleWrites: a teardown removes a chain rule while
// the flow's packets wait in the shard's queue. The packet already in
// the chain finishes on it; every packet the worker has not begun runs
// the rules as they stand now (here a table-miss punt), as it would have
// finished in Submit after the write, and is not billed to the removed
// rule.
func TestQueuedPacketsSeeRuleWrites(t *testing.T) {
	const n = 8
	gate := &gateChains{open: make(chan struct{})}
	gate.free.Store(1)
	p := New(Config{Shards: 1, Chains: gate})
	rule := &openflow.FlowEntry{Priority: 10, Match: dportMatch(8080), Cookie: 1,
		Actions: []openflow.Action{openflow.ToMiddlebox("g"), openflow.Output(1)}}
	p.Table().Install(rule, 0)
	p.Start()
	defer p.Stop()
	for seq := uint32(0); seq < n; seq++ {
		p.Submit(seqFrame(t, 8080, seq), 0)
	}
	// Packet 0 missed the cache and finished in Submit; packet 1 is held
	// in the chain, and packets 2.. wait behind it.
	for gate.free.Load() >= 0 {
		runtime.Gosched()
	}
	if p.Table().RemoveByCookie(1) != 1 {
		t.Fatal("the chain rule was not removed")
	}
	close(gate.open)
	p.Drain()
	st := p.Stats().Total()
	if st.Processed != n || st.Outputs != 2 || st.PacketIns != n-2 {
		t.Errorf("processed %d: %d output, %d punted; want %d: 2 output, %d punted", st.Processed, st.Outputs, st.PacketIns, n, n-2)
	}
	if pk, _ := rule.Stats(); pk != 2 {
		t.Errorf("the removed rule billed %d packets, want the 2 that ran on it", pk)
	}
}

// TestItemSize holds a queued packet to 56 bytes on 64-bit platforms:
// every queued packet carries one, and the rings hold QueueDepth each.
func TestItemSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if s := unsafe.Sizeof(item{}); s > 56 {
		t.Errorf("item is %d bytes, want at most 56", s)
	}
}
