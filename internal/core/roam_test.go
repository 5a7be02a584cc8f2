package core

import (
	"testing"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/discovery"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

// TestRoamBetweenNetworks: the same PVNC follows the device from a
// full-support network to a partial one to a PVN-free one, degrading
// gracefully: in-network -> reduced in-network -> tunneled.
func TestRoamBetweenNetworks(t *testing.T) {
	w := newWorld(t, fullProvider())

	partialPolicy := fullProvider()
	partialPolicy.Provider = "isp-partial"
	delete(partialPolicy.Supported, "tracker-block")
	partial, err := NewStandardNetwork(NetworkConfig{
		Name: "isp-partial", Provider: partialPolicy,
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	noPVN, err := NewStandardNetwork(NetworkConfig{Name: "isp-none",
		Now: func() time.Duration { return w.now }})
	if err != nil {
		t.Fatal(err)
	}
	w.dev.Tunnels.Add(&tunnel.Endpoint{
		Name: "home", Addr: packet.MustParseIPv4("203.0.113.80"),
		ExtraRTT: 100 * time.Millisecond, Trusted: true,
	})

	// Home network: full support.
	s1, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Mode != ModeInNetwork || len(s1.Decision.FinalConfig.Middleboxes) != 2 {
		t.Fatalf("session 1: %+v", s1)
	}
	w.now = s1.ReadyAt() + time.Millisecond
	leak, _ := trace.HTTPRequestPacket(w.dev.Addr, packet.MustParseIPv4("1.2.3.4"), 40000, "h", "/", "password=hunter2")
	if d, _ := s1.Process(leak, 0); d.Verdict != openflow.VerdictDrop {
		t.Fatal("session 1 not protecting")
	}

	// Roam to the partial network: protections degrade to the subset
	// but the PII blocker stays.
	s2, inv1, err := RoamWith(s1, []*AccessNetwork{partial}, RoamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inv1 == nil || inv1.TotalMicro <= 0 {
		t.Fatalf("no invoice from first network: %+v", inv1)
	}
	if s2.Mode != ModeInNetwork || s2.Network.Name != "isp-partial" {
		t.Fatalf("session 2: mode=%v network=%s", s2.Mode, s2.Network.Name)
	}
	if len(s2.Decision.FinalConfig.Middleboxes) != 1 {
		t.Fatalf("session 2 kept %d middleboxes, want 1", len(s2.Decision.FinalConfig.Middleboxes))
	}
	// The old network is fully cleaned up.
	if w.network.Server.Switch.Table.Len() != 0 {
		t.Fatal("rules left behind on the first network")
	}
	w.now = s2.ReadyAt() + time.Millisecond
	if d, _ := s2.Process(leak, 0); d.Verdict != openflow.VerdictDrop {
		t.Fatal("session 2 lost PII protection")
	}

	// Roam to the PVN-free network: fall back to tunneling home.
	s3, _, err := RoamWith(s2, []*AccessNetwork{noPVN}, RoamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Mode != ModeTunneled || s3.TunnelEndpoint.Name != "home" {
		t.Fatalf("session 3: %+v", s3)
	}
	if partial.Server.Switch.Table.Len() != 0 {
		t.Fatal("rules left behind on the partial network")
	}
}

// TestRoamPreservesDeviceState: negotiation sequence numbers keep
// increasing across roams (each discovery attempt is distinguishable).
func TestRoamKeepsWorking(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	// Roam back onto the same network (e.g. wifi flap).
	s2, _, err := RoamWith(s, []*AccessNetwork{w.network}, RoamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Mode != ModeInNetwork {
		t.Fatalf("reconnect mode %v", s2.Mode)
	}
	if _, err := s2.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestStrictPartialOfferRunsBare: a strict device facing an offer that
// lacks one of its middleboxes, with no tunnel to fall back on, runs
// bare. Renegotiating the supported subset is discovery.Session's
// CounterDM round, not Connect's.
func TestStrictPartialOfferRunsBare(t *testing.T) {
	p := fullProvider()
	delete(p.Supported, "tracker-block") // partial support
	w := newWorld(t, p)
	w.dev.Strategy = discovery.StrategyStrict

	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err == nil || s.Mode != ModeBare {
		t.Fatalf("strict on a partial offer: mode=%v err=%v", s.Mode, err)
	}
}

// TestRoamFailedDeployNoBlackout: make-before-break means a roam whose
// new network cannot take the PVN (control channel dead, no tunnel
// fallback) leaves the old session fully serving — no blackout.
func TestRoamFailedDeployNoBlackout(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	w.now = s.ReadyAt() + time.Millisecond

	dead, err := NewStandardNetwork(NetworkConfig{
		Name: "isp-dead", Provider: fullProvider(),
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every control message to the new network is lost.
	dead.Faults = netsim.NewFaultInjector(netsim.FaultConfig{DropRate: 1}, netsim.NewRNG(3))

	s2, inv, err := RoamWith(s, []*AccessNetwork{dead}, RoamOptions{})
	if err == nil {
		t.Fatal("roam to a dead network succeeded")
	}
	if s2 != s || inv != nil {
		t.Fatalf("failed roam returned s2=%p inv=%v, want the old session untouched", s2, inv)
	}
	if s.Mode != ModeInNetwork {
		t.Fatalf("old session mode %v after failed roam", s.Mode)
	}
	if w.network.Server.Switch.Table.Len() == 0 {
		t.Fatal("old deployment was torn down by the failed roam")
	}
	// …and it still protects.
	leak, _ := trace.HTTPRequestPacket(w.dev.Addr, packet.MustParseIPv4("1.2.3.4"), 40100, "h", "/", "password=hunter2")
	if d, _ := s.Process(leak, 0); d.Verdict != openflow.VerdictDrop {
		t.Fatal("old session stopped protecting after failed roam")
	}
	if fs := dead.Faults.Stats; fs.Dropped == 0 {
		t.Fatalf("injector never consulted: %+v", fs)
	}
}

// TestRoamUnderOutageRetries: a provider outage window makes the first
// roam attempt fail (old session keeps serving); once the outage lifts,
// the same roam succeeds.
func TestRoamUnderOutageRetries(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	w.now = s.ReadyAt() + time.Millisecond

	flaky, err := NewStandardNetwork(NetworkConfig{
		Name: "isp-flaky", Provider: fullProvider(),
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky.Faults = netsim.NewFaultInjector(netsim.FaultConfig{
		Outages: []netsim.Outage{{From: 0, Until: w.now + 10*time.Millisecond}},
	}, netsim.NewRNG(4))

	if _, _, err := RoamWith(s, []*AccessNetwork{flaky}, RoamOptions{}); err == nil {
		t.Fatal("roam during provider outage succeeded")
	}
	if s.Mode != ModeInNetwork {
		t.Fatalf("old session mode %v during outage", s.Mode)
	}

	w.now += 20 * time.Millisecond // outage over; retry
	s2, inv, err := RoamWith(s, []*AccessNetwork{flaky}, RoamOptions{})
	if err != nil {
		t.Fatalf("retry after outage: %v", err)
	}
	if s2.Mode != ModeInNetwork || s2.Network.Name != "isp-flaky" {
		t.Fatalf("retried session %+v", s2)
	}
	if inv == nil {
		t.Fatal("no invoice from the old network")
	}
	if w.network.Server.Switch.Table.Len() != 0 {
		t.Fatal("old deployment left behind after successful retry")
	}
}

// TestHandoverDrainAndExactInvoice drives BeginRoam/Handover directly:
// packets ride the old chains while the new deployment boots, old flows
// drain through the old session until the deadline while new flows pin
// to the new one, and the old network's final invoice prices exactly
// the bytes it carried — including the drained packets.
func TestHandoverDrainAndExactInvoice(t *testing.T) {
	w := newWorld(t, fullProvider())
	partialPolicy := fullProvider()
	partialPolicy.Provider = "isp-partial"
	delete(partialPolicy.Supported, "tracker-block")
	partial, err := NewStandardNetwork(NetworkConfig{
		Name: "isp-partial", Provider: partialPolicy,
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 23,
		Tariff: billing.Tariff{PerModuleMicro: map[string]int64{"pii-detect": 100}, PerMBMicro: 10},
	})
	if err != nil {
		t.Fatal(err)
	}

	s1, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	w.now = s1.ReadyAt() + time.Millisecond

	dst := packet.MustParseIPv4("93.184.216.34")
	oldFlowPkt := func() []byte {
		p, _ := trace.HTTPRequestPacket(w.dev.Addr, dst, 45001, "api.example", "/ok", "hello")
		return p
	}
	newFlowPkt := func() []byte {
		p, _ := trace.HTTPRequestPacket(w.dev.Addr, dst, 45002, "api.example", "/ok", "hello")
		return p
	}

	var oldBytes int64
	processOld := func(h *Handover, pkt []byte) {
		d, err := h.Process(pkt, 0)
		if err != nil || d.Verdict != openflow.VerdictOutput {
			t.Fatalf("old-path packet: %v %v", d.Verdict, err)
		}
		oldBytes += int64(len(pkt))
	}

	// Establish the old flow before the handover.
	if d, _ := s1.Process(oldFlowPkt(), 0); d.Verdict != openflow.VerdictOutput {
		t.Fatal("old flow not forwarded")
	}
	oldBytes += int64(len(oldFlowPkt()))

	h, err := BeginRoam(s1, []*AccessNetwork{partial}, RoamOptions{DrainDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if h.New.Network.Name != "isp-partial" || h.New.ReadyAt() <= w.now {
		t.Fatalf("new session %+v ready=%v now=%v", h.New.Mode, h.New.ReadyAt(), w.now)
	}

	// Phase 1 — new deployment still booting: EVERYTHING rides the old
	// session, even packets of a brand-new flow.
	processOld(h, oldFlowPkt())
	processOld(h, newFlowPkt())
	if got := partialUsageBytes(t, partial); got != 0 {
		t.Fatalf("new network carried %d bytes before ready", got)
	}

	// Phase 2 — new deployment ready, inside the drain window: the old
	// flow keeps draining through the old chains, new flows cut over.
	w.now = h.New.ReadyAt() + time.Millisecond
	if w.now >= h.DrainUntil {
		t.Fatalf("drain window empty: now=%v until=%v", w.now, h.DrainUntil)
	}
	processOld(h, oldFlowPkt())
	if d, _ := h.Process(newFlowPkt(), 0); d.Verdict != openflow.VerdictOutput {
		t.Fatal("new flow not forwarded on new network")
	}
	if got := partialUsageBytes(t, partial); got == 0 {
		t.Fatal("new network carried nothing after ready")
	}

	// Phase 3 — drain deadline passed: the old flow moves too.
	w.now = h.DrainUntil + time.Millisecond
	if d, _ := h.Process(oldFlowPkt(), 0); d.Verdict != openflow.VerdictOutput {
		t.Fatal("old flow not forwarded after drain deadline")
	}

	// The old invoice prices exactly the bytes the old session carried.
	_, usage, ok := w.network.Server.Usage(w.dev.ID)
	if !ok || usage != oldBytes {
		t.Fatalf("old network usage %d bytes, expected %d", usage, oldBytes)
	}
	want := s1.invoiceFor(oldBytes).TotalMicro
	inv, err := h.Complete()
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil || inv.TotalMicro != want {
		t.Fatalf("invoice %+v, want total %d", inv, want)
	}
	if w.network.Server.Switch.Table.Len() != 0 {
		t.Fatal("old deployment left behind")
	}
	// Completing twice is a no-op.
	if inv2, err := h.Complete(); inv2 != nil || err != nil {
		t.Fatalf("second Complete: %v %v", inv2, err)
	}
}

func partialUsageBytes(t *testing.T, n *AccessNetwork) int64 {
	t.Helper()
	_, b, _ := n.Server.Usage("dev1")
	return b
}

// TestHandoverMigratesMiddleboxState: the PII detector's counters follow
// the device across a handover instead of cold-starting (StatefulBox).
func TestHandoverMigratesMiddleboxState(t *testing.T) {
	w := newWorld(t, fullProvider())
	s1, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	w.now = s1.ReadyAt() + time.Millisecond

	// Two PII findings on the old network.
	for i := 0; i < 2; i++ {
		leak, _ := trace.HTTPRequestPacket(w.dev.Addr, packet.MustParseIPv4("1.2.3.4"),
			uint16(46000+i), "h", "/", "password=hunter2")
		if d, _ := s1.Process(leak, 0); d.Verdict != openflow.VerdictDrop {
			t.Fatal("leak not blocked on old network")
		}
	}

	other, err := NewStandardNetwork(NetworkConfig{
		Name: "isp2", Provider: fullProvider(),
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := BeginRoam(s1, []*AccessNetwork{other}, RoamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Migrated == 0 {
		t.Fatal("no middlebox state migrated")
	}
	if _, err := h.Complete(); err != nil {
		t.Fatal(err)
	}

	dep := other.Server.Deployment(w.dev.ID)
	if dep == nil {
		t.Fatal("no deployment on the new network")
	}
	var carried int64
	for _, id := range dep.InstanceIDs {
		inst := other.Server.Runtime.Instance(id)
		if pii, ok := inst.Box.(*mbx.PIIDetect); ok {
			carried = pii.Blocked
		}
	}
	if carried != 2 {
		t.Fatalf("migrated Blocked counter = %d, want 2", carried)
	}
}

// TestHandoverRecordsRedirection: with a ledger attached, Complete files
// the roam as redirection evidence under the old provider.
func TestHandoverRecordsRedirection(t *testing.T) {
	w := newWorld(t, fullProvider())
	w.dev.Ledger = auditor.NewLedger()
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	w.now = s.ReadyAt() + time.Millisecond

	other, err := NewStandardNetwork(NetworkConfig{
		Name: "isp2", Provider: fullProvider(),
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RoamWith(s, []*AccessNetwork{other}, RoamOptions{}); err != nil {
		t.Fatal(err)
	}
	reds := w.dev.Ledger.Redirections("isp1")
	if len(reds) != 1 {
		t.Fatalf("redirections %+v", reds)
	}
	r := reds[0]
	if r.From != "in-network:isp1" || r.To != "in-network:isp2" || r.Reason != "roam" {
		t.Fatalf("redirection %+v", r)
	}
}
