package dataplane

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// TestChainAllocBudget pins what a clean packet costs on the realistic
// chain, pii-detect mode=block + tracker-block: one decode (13 allocs)
// shared by the isolation check and both boxes, one Context, and nothing
// for the scan — per ExecuteChain, and so per packet through the
// pipeline, whose own path allocates nothing. It was 47.
func TestChainAllocBudget(t *testing.T) {
	const budget = 16
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Load()) }
	rt := middlebox.NewRuntime(now)
	mbx.RegisterBuiltins(rt, mbx.Deps{})
	dev := packet.MustParseIPv4("10.0.0.5")
	pii, err := rt.Instantiate("alice", "pii-detect", map[string]string{"mode": "block", "secrets": "hunter2,DevID-77"})
	if err != nil {
		t.Fatal(err)
	}
	trk, err := rt.Instantiate("alice", "tracker-block", map[string]string{"domains": "ads.example,tracker.net"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "secure", []string{pii.ID, trk.ID}, []packet.IPv4Address{dev}); err != nil {
		t.Fatal(err)
	}
	clock.Store(int64(time.Second)) // booted

	get := func(host, path string) []byte {
		ip := &packet.IPv4{Src: dev, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: 40001, DstPort: 80}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, &packet.HTTP{IsRequest: true, Method: "GET", Path: path, Headers: []packet.HTTPHeader{
			{Name: "Host", Value: host}, {Name: "Cookie", Value: strings.Repeat("abcdefghij klmnop; ", 37)}}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	clean := get("news.example", "/story")
	if len(clean) < 780 || len(clean) > 820 {
		t.Fatalf("frame is %d bytes, want about 800", len(clean))
	}

	run := func() {
		if out, _, err := rt.ExecuteChain("alice/secure", clean); err != nil || out == nil {
			t.Fatalf("clean GET did not pass: out=%v err=%v", out != nil, err)
		}
	}
	run() // grow the pooled scan scratch
	if avg := testing.AllocsPerRun(200, run); avg > budget && !raceEnabled {
		t.Errorf("clean GET costs %.1f allocs per ExecuteChain, budget %d", avg, budget)
	}

	var outputs atomic.Int64
	p := New(Config{Shards: 1, QueueDepth: 64, Policy: Block, Chains: rt, Now: now,
		OnOutput: func(uint16, []byte) { outputs.Add(1) }})
	p.Table().Install(&openflow.FlowEntry{
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: 80},
		Actions:  []openflow.Action{openflow.ToMiddlebox("alice/secure"), openflow.Output(1)},
	}, 0)
	p.Start()
	defer p.Stop()
	for i := 0; i < 256; i++ { // warm pool, flow cache, latency ring
		p.Submit(clean, 0)
	}
	p.Drain()
	avg := testing.AllocsPerRun(200, func() {
		p.Submit(clean, 0)
		p.Drain()
	})
	if avg > budget && !raceEnabled {
		t.Errorf("clean GET costs %.1f allocs per packet through the pipeline, budget %d", avg, budget)
	}
	if got := outputs.Load(); got != 256+201 {
		t.Errorf("%d of %d clean GETs were forwarded", got, 256+201)
	}

	// The shared decode still carries the isolation check's refusals: a
	// frame whose IPv4 header checksum is bad is nobody's traffic.
	bad := append([]byte(nil), clean...)
	bad[10] ^= 0x55
	if _, _, err := rt.ExecuteChain("alice/secure", bad); !errors.Is(err, middlebox.ErrIsolation) {
		t.Fatalf("corrupted IPv4 checksum: err=%v, want ErrIsolation", err)
	}
	// And the detectors still detect.
	if out, _, err := rt.ExecuteChain("alice/secure", get("news.example", "/?id=devid-77")); err != nil || out != nil {
		t.Fatalf("leaking GET: out=%v err=%v, want a drop", out != nil, err)
	}
	if out, _, err := rt.ExecuteChain("alice/secure", get("cdn.ADS.example", "/px")); err != nil || out != nil {
		t.Fatalf("tracker GET: out=%v err=%v, want a drop", out != nil, err)
	}
	if p, tb := rt.Instance(pii.ID), rt.Instance(trk.ID); p.Drops != 1 || tb.Drops != 1 {
		t.Fatalf("drops pii=%d tracker=%d, want 1 and 1", p.Drops, tb.Drops)
	}
}
