package deployserver

import (
	"strings"
	"testing"
	"time"

	"pvn/internal/dataplane"
	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// The sharded wiring pvnd and bench/ use: deployments mirror into the
// pipeline's table and traffic enters through Pipeline.Submit, never
// through Switch.Process. Billing and rate limits must follow the
// traffic into whichever table it crossed.

const ratedSrc = cfgSrc + "policy 50 match proto=udp dport=53 rate=1.5mbps action=forward\n"

// mirroredServer is testServer fronted by a running pipeline.
func mirroredServer(t *testing.T, now *time.Duration) (*Server, *dataplane.Pipeline) {
	t.Helper()
	s := testServer(t, now)
	dp := dataplane.New(dataplane.Config{
		Shards: 2,
		Policy: dataplane.Block,
		Chains: middlebox.Synchronized(s.Runtime),
		Now:    func() time.Duration { return *now },
	})
	s.ExtraRules = dp.Table()
	dp.Start()
	t.Cleanup(dp.Stop)
	return s, dp
}

// dnsFrames builds n UDP/53 frames of distinct sizes from the test
// device and returns them with their exact byte sum.
func dnsFrames(t *testing.T, n int) (frames [][]byte, sum int64) {
	t.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("9.9.9.9"), Protocol: packet.IPProtoUDP}
	for i := 0; i < n; i++ {
		udp := &packet.UDP{SrcPort: uint16(5000 + i%7), DstPort: 53}
		udp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, udp, packet.Payload(strings.Repeat("q", 1+i)))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
		sum += int64(len(data))
	}
	return frames, sum
}

func deployRated(t *testing.T, s *Server) {
	t.Helper()
	if resp := s.HandleDeploy(&discovery.DeployRequest{DeviceID: "dev1", PVNCSource: ratedSrc, Payment: 300}); !resp.OK {
		t.Fatal(resp.Reason)
	}
}

// TestUsageCountsMirroredTraffic: Usage and Teardown bill the packets
// that crossed the mirrored table. Both used to report 0 — the counters
// they read lived in the table the traffic never touched.
func TestUsageCountsMirroredTraffic(t *testing.T) {
	now := time.Duration(0)
	s, dp := mirroredServer(t, &now)
	deployRated(t, s)
	now = 50 * time.Millisecond // after boot

	frames, sum := dnsFrames(t, 100)
	for _, f := range frames {
		dp.Submit(f, 0)
	}
	dp.Drain()
	if out := dp.Stats().Total().Outputs; out != 100 {
		t.Fatalf("pipeline forwarded %d of 100", out)
	}
	pkts, bytes, ok := s.Usage("dev1")
	if !ok || pkts != 100 || bytes != sum {
		t.Fatalf("usage %d pkts / %d bytes ok=%v, want 100 / %d", pkts, bytes, ok, sum)
	}
	pkts, bytes, err := s.Teardown("dev1")
	if err != nil || pkts != 100 || bytes != sum {
		t.Fatalf("teardown %d pkts / %d bytes err=%v, want 100 / %d", pkts, bytes, err, sum)
	}
}

// TestMeterReachesPipeline: a rate= policy deployed under the sharded
// wiring shapes the pipeline's traffic, and every way a deployment ends
// takes the meter out of both tables.
func TestMeterReachesPipeline(t *testing.T) {
	now := time.Duration(0)
	s, dp := mirroredServer(t, &now)
	s.LeaseTTL = time.Minute
	deployRated(t, s)
	meters := s.Deployment("dev1").Meters
	if len(meters) != 1 {
		t.Fatalf("rate policy booked meters %v", meters)
	}
	now = 50 * time.Millisecond

	frames, _ := dnsFrames(t, 100)
	for _, f := range frames {
		dp.Submit(f, 0)
	}
	dp.Drain()
	m, ok := dp.Table().Meter(meters[0])
	if !ok || m.Conformed+m.Exceeded != 100 {
		t.Fatalf("pipeline meter present=%v conformed=%d exceeded=%d, want 100 shaped", ok, m.Conformed, m.Exceeded)
	}

	// assertPristine checks rules and meters of both tables.
	if _, _, err := s.Teardown("dev1"); err != nil {
		t.Fatal(err)
	}
	assertPristine(t, s)

	deployRated(t, s)
	now += 2 * time.Minute
	if swept := s.SweepExpired(); len(swept) != 1 {
		t.Fatalf("swept %v", swept)
	}
	assertPristine(t, s)

	deployRated(t, s)
	s.Restart()
	if _, n, _, _ := s.ReclaimOrphans(); n != 1 {
		t.Fatalf("reclaimed %d meters, want 1", n)
	}
	assertPristine(t, s)
}

// TestOneTableWritePerDeployment: every generation bump flushes every
// worker's flow cache, so a deployment — however many rules it compiles
// to — must move each table's generation once, and so must its
// teardown, and so must reclaiming any number of crashed deployments.
func TestOneTableWritePerDeployment(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	tables := s.tables()
	step := func(what string, do func()) {
		t.Helper()
		before := []uint64{tables[0].Generation(), tables[1].Generation()}
		do()
		for i, tbl := range tables {
			if got := tbl.Generation() - before[i]; got != 1 {
				t.Errorf("%s: table %d took %d writes, want 1", what, i, got)
			}
		}
	}
	deploy := func(dev string) func() {
		return func() {
			t.Helper()
			if resp := s.HandleDeploy(&discovery.DeployRequest{DeviceID: dev, PVNCSource: ratedSrc, Payment: 300}); !resp.OK {
				t.Fatal(resp.Reason)
			}
		}
	}
	step("deploy", deploy("dev1"))
	if n := tables[1].Len(); n != 6 {
		t.Fatalf("deployment compiled to %d rules, want 6", n)
	}
	step("second deploy", deploy("dev2"))
	step("teardown", func() {
		if _, _, err := s.Teardown("dev1"); err != nil {
			t.Fatal(err)
		}
	})
	deploy("dev3")()
	s.Restart()
	step("reclaim of two crashed deployments", func() {
		if rules, _, _, _ := s.ReclaimOrphans(); rules != 12 {
			t.Fatalf("reclaimed %d rules, want 12", rules)
		}
	})
	if tables[0].Len() != 0 || tables[1].Len() != 0 {
		t.Fatalf("rules left: %d and %d", tables[0].Len(), tables[1].Len())
	}
}

// TestNeighbourChurnKeepsResidentFlowsCached: another tenant's deploy
// and teardown each write both tables, but every rule they file or
// remove is pinned to that tenant's address, so a resident's cached flow
// still hits afterwards, through Switch.Process's resolve step and
// through the pipeline.
func TestNeighbourChurnKeepsResidentFlowsCached(t *testing.T) {
	now := time.Duration(0)
	s, dp := mirroredServer(t, &now)
	deployRated(t, s)
	now = 50 * time.Millisecond // after boot

	frames, _ := dnsFrames(t, 1)
	f := frames[0]
	if d := s.Switch.Process(f, 0); d.Verdict != openflow.VerdictOutput {
		t.Fatalf("resident's packet: verdict %v", d.Verdict)
	}
	dp.Submit(f, 0)
	dp.Drain()

	gen := s.Switch.Table.Generation()
	neighbour := strings.NewReplacer("owner alice", "owner bob", "10.0.0.5", "10.0.0.77").Replace(cfgSrc)
	if resp := s.HandleDeploy(&discovery.DeployRequest{DeviceID: "dev2", PVNCSource: neighbour, Payment: 300}); !resp.OK {
		t.Fatalf("neighbour's deploy: %s", resp.Reason)
	}
	if _, _, err := s.Teardown("dev2"); err != nil {
		t.Fatalf("neighbour's teardown: %v", err)
	}
	if g := s.Switch.Table.Generation(); g != gen+2 {
		t.Fatalf("the neighbour's deploy and teardown moved the generation %d -> %d, want two writes", gen, g)
	}

	key, ok := openflow.KeyOf(f, 0)
	if _, _, hit := s.Switch.Resolve(key, ok, f, nil); !hit {
		t.Error("the resident's flow missed the switch's flow cache after a neighbour's deploy and teardown")
	}
	before := dp.Stats().Total().CacheHits
	dp.Submit(f, 0)
	dp.Drain()
	if d := dp.Stats().Total().CacheHits - before; d != 1 {
		t.Errorf("the resident's packet made %d pipeline cache hits after a neighbour's deploy and teardown, want 1", d)
	}
}
