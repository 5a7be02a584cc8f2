package dataplane

// Concurrent lookup/update interleaving stress. Run with -race: these
// tests exist to prove that M dataplane readers against a control-plane
// writer are clean on both read paths of openflow.FlowTable: the
// workers' cached lookup and the serial switch's snapshot scan.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

const (
	raceReaders = 8
	raceLookups = 2000
	raceWrites  = 200
)

func raceFields(i int) openflow.PacketFields {
	return openflow.PacketFields{
		SrcIP:   packet.MustParseIPv4("10.0.0.5"),
		DstIP:   packet.MustParseIPv4("93.184.216.34"),
		Proto:   packet.IPProtoTCP,
		SrcPort: uint16(40000 + i%128),
		DstPort: 80,
	}
}

func raceEntry(prio int) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: prio,
		Match:    openflow.Match{Fields: openflow.FieldProto, Proto: packet.IPProtoTCP},
		Actions:  []openflow.Action{openflow.Output(1)},
		Cookie:   uint64(prio % 3),
		// A sub-nanosecond idle timeout cannot trigger with a zero
		// clock; hard timeouts on every 7th entry keep Expire busy.
		HardTimeout: map[bool]time.Duration{true: time.Nanosecond, false: 0}[prio%7 == 0],
	}
}

// TestShardedTableRace spins M readers (each owning its flow cache, as
// workers do) against one writer interleaving installs, removals and
// expiry on the flow table's cached read path.
func TestShardedTableRace(t *testing.T) {
	tbl := NewShardedTable()
	tbl.Install(raceEntry(1), 0)

	var wg sync.WaitGroup
	for r := 0; r < raceReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cache := openflow.NewFlowCache() // one per goroutine: worker-private
			for i := 0; i < raceLookups; i++ {
				f := raceFields(i)
				key := openflow.CacheKey{Flow: packet.Flow{
					Proto: f.Proto,
					Src:   packet.Endpoint{Addr: f.SrcIP, Port: f.SrcPort},
					Dst:   packet.Endpoint{Addr: f.DstIP, Port: f.DstPort},
				}}
				if _, hit := tbl.LookupCached(cache, key, true, 100, time.Duration(i)); !hit {
					tbl.LookupScan(cache, key, true, f, 100, time.Duration(i))
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; i < raceWrites; i++ {
			tbl.Install(raceEntry(i), time.Duration(i))
			if i%5 == 0 {
				tbl.RemoveByCookie(uint64(i % 3))
			}
			if i%11 == 0 {
				tbl.Expire(time.Duration(i) * time.Millisecond)
			}
			tbl.StatsByCookie(uint64(i % 3))
			tbl.Entries()
		}
	}()
	wg.Wait()

	// The table must still answer coherently.
	if n := tbl.Len(); n < 0 {
		t.Fatalf("impossible length %d", n)
	}
	p, b := tbl.StatsByCookie(1)
	if p < 0 || b < 0 {
		t.Fatalf("negative stats %d/%d", p, b)
	}
}

// TestLegacyTableRace runs the same interleaving against the table's
// cacheless read path (the serial switch's Lookup): concurrent snapshot
// scans with atomic counter updates, against Install/RemoveByCookie/
// Expire writers.
func TestLegacyTableRace(t *testing.T) {
	tbl := openflow.NewFlowTable()
	tbl.Install(raceEntry(1), 0)

	var wg sync.WaitGroup
	for r := 0; r < raceReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < raceLookups; i++ {
				tbl.Lookup(raceFields(i), 100, time.Duration(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; i < raceWrites; i++ {
			tbl.Install(raceEntry(i), time.Duration(i))
			if i%5 == 0 {
				tbl.RemoveByCookie(uint64(i % 3))
			}
			if i%11 == 0 {
				tbl.Expire(time.Duration(i) * time.Millisecond)
			}
			tbl.StatsByCookie(uint64(i % 3))
		}
	}()
	wg.Wait()

	p, b := tbl.StatsByCookie(1)
	if p < 0 || b < 0 {
		t.Fatalf("negative stats %d/%d", p, b)
	}
}

// TestPipelineRace exercises the full pipeline under -race: concurrent
// submitters, workers, a control-plane writer mutating rules, and a
// stats poller.
func TestPipelineRace(t *testing.T) {
	p := New(Config{Shards: 4, QueueDepth: 256})
	installRules(t, p.Table())
	p.Start()

	var wg sync.WaitGroup
	pkts := frames(t, 64)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Submit(pkts[(s*1000+i)%len(pkts)], 0)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			fm := openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Priority: 200 + i,
				Match:    openflow.Match{Fields: openflow.FieldDstPort, DstPort: 9999},
				Actions:  []openflow.Action{openflow.Drop()},
				Cookie:   1000,
			}
			fm.Apply(p.Table(), 0)
			if i%3 == 0 {
				p.Table().RemoveByCookie(1000)
			}
			p.Stats()
		}
	}()
	wg.Wait()
	p.Drain()
	p.Stop()

	st := p.Stats().Total()
	// The ShardStats invariant at quiescence (QueueDepth is 0 after a
	// full Drain+Stop): every dispatched packet was either processed or
	// counted dropped.
	if st.Enqueued != st.Processed+st.Dropped || st.Processed <= 0 || st.QueueDepth != 0 {
		t.Fatalf("incoherent stats %+v", st)
	}
}

// TestPipelinePanicStormRace is the supervision satellite: a 3-box chain
// whose middle box panics on ~30% of calls, driven by concurrent
// submitters through the sharded pipeline with a stats poller alongside,
// under -race. The process must never crash, the breaker must open, and
// the supervision counters must stay coherent.
func TestPipelinePanicStormRace(t *testing.T) {
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Load()) }

	rt := middlebox.NewRuntime(now)
	rt.Register(&middlebox.Spec{Type: "quiet", New: func(map[string]string) (middlebox.Box, error) {
		return mbx.NewFaultyBox(nil, mbx.FaultPlan{}, 1), nil
	}})
	rt.Register(&middlebox.Spec{
		Type: "storm", FailPolicy: middlebox.FailOpen,
		New: func(map[string]string) (middlebox.Box, error) {
			return mbx.NewFaultyBox(nil, mbx.FaultPlan{PanicRate: 0.3}, 42), nil
		},
	})
	rt.Register(&middlebox.Spec{
		// Always errors and is fail-closed: every packet through it is a
		// chain error the dataplane must count and drop, before and
		// after its breaker opens.
		Type: "stonewall",
		New: func(map[string]string) (middlebox.Box, error) {
			return mbx.NewFaultyBox(nil, mbx.FaultPlan{ErrorEvery: 1}, 1), nil
		},
	})
	var ids []string
	for _, typ := range []string{"quiet", "storm", "quiet"} {
		inst, err := rt.Instantiate("u", typ, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}
	if _, err := rt.BuildChain("u", "storm", ids, nil); err != nil {
		t.Fatal(err)
	}
	wall, err := rt.Instantiate("u", "stonewall", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("u", "closed", []string{wall.ID}, nil); err != nil {
		t.Fatal(err)
	}
	clock.Store(int64(time.Second)) // everything booted, nothing restartable yet

	p := New(Config{Shards: 4, QueueDepth: 512, Policy: Block, Chains: middlebox.Synchronized(rt), Now: now})
	tbl := p.Table()
	tbl.Install(&openflow.FlowEntry{
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: 8080},
		Actions:  []openflow.Action{openflow.ToMiddlebox("u/storm"), openflow.Output(1)},
	}, 0)
	tbl.Install(&openflow.FlowEntry{
		Priority: 90,
		Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: 9090},
		Actions:  []openflow.Action{openflow.ToMiddlebox("u/closed"), openflow.Output(1)},
	}, 0)
	p.Start()

	src := packet.MustParseIPv4("10.0.0.5")
	dst := packet.MustParseIPv4("93.184.216.34")
	mkPkt := func(i int, dport uint16) []byte {
		ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(40000 + i%64), DstPort: dport}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("storm"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	pkts := make([][]byte, 0, 128)
	for i := 0; i < 128; i++ {
		dport := uint16(8080)
		if i%4 == 3 {
			dport = 9090
		}
		pkts = append(pkts, mkPkt(i, dport))
	}

	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				// Block policy: Submit waits out backpressure, so every
				// packet lands and the counters below are exact.
				p.Submit(pkts[(s*1000+i)%len(pkts)], 0)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			st := p.Stats()
			if st.Chain.Panics < 0 || st.Chain.Bypasses < 0 {
				panic("impossible negative supervision counter")
			}
		}
	}()
	wg.Wait()
	p.Drain()
	p.Stop()

	st := p.Stats()
	total := st.Total()
	if total.Processed != 4000 {
		t.Fatalf("processed %d, want 4000", total.Processed)
	}
	// 3000 storm packets all deliver (fail-open); 1000 stonewall packets
	// all drop as chain errors (fail-closed).
	if total.Outputs != 3000 {
		t.Fatalf("outputs %d, want 3000 (fail-open never loses a packet)", total.Outputs)
	}
	if total.ChainErrs != 1000 || total.Drops != 1000 {
		t.Fatalf("chain errs/drops %d/%d, want 1000/1000", total.ChainErrs, total.Drops)
	}
	if st.Chain.Panics == 0 {
		t.Fatal("panic storm injected no panics")
	}
	if st.Chain.BreakerOpens == 0 {
		t.Fatal("breaker never opened under the storm")
	}
	if st.Chain.Bypasses == 0 || st.Chain.BrokenDrops == 0 {
		t.Fatalf("supervision stats %+v: want bypasses and broken drops", st.Chain)
	}
	// Every storm packet either ran the box cleanly or was bypassed;
	// faulting packets count in both Packets and Bypasses (the call ran,
	// then the packet crossed unprocessed), so subtract them once.
	storm := rt.Instance(ids[1])
	if storm.Packets+storm.Bypasses-storm.Errors != 3000 {
		t.Fatalf("storm box packets %d + bypasses %d - faults %d != 3000",
			storm.Packets, storm.Bypasses, storm.Errors)
	}
}
