package middlebox_test

// Supervised-execution tests. These live in an external package because
// they drive the supervisor through mbx.FaultyBox, and mbx imports
// middlebox — the in-package test file cannot.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pvn/internal/health"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/packet"
)

// supRuntime builds a runtime with the builtin registry (including the
// "faulty" type) on a controllable clock.
func supRuntime(now *time.Duration) *middlebox.Runtime {
	rt := middlebox.NewRuntime(func() time.Duration { return *now })
	mbx.RegisterBuiltins(rt, mbx.Deps{})
	return rt
}

func supPacket(t *testing.T) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 1000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("supervised payload"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// supChain instantiates pass → faulty(cfg) → pass for alice, boots them,
// and returns the chain plus the faulty instance.
func supChain(t *testing.T, rt *middlebox.Runtime, now *time.Duration, cfg map[string]string) (*middlebox.Chain, *middlebox.Instance) {
	t.Helper()
	rt.Register(&middlebox.Spec{Type: "passthru", New: func(map[string]string) (middlebox.Box, error) {
		return mbx.NewFaultyBox(nil, mbx.FaultPlan{}, 1), nil
	}})
	a, err := rt.Instantiate("alice", "passthru", nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rt.Instantiate("alice", "faulty", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Instantiate("alice", "passthru", nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rt.BuildChain("alice", "c", []string{a.ID, f.ID, b.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	*now += middlebox.DefaultBootDelay + time.Millisecond
	return ch, f
}

// TestSupervisedFaultKinds is the satellite's table: a panicking, an
// erroring, and an output-corrupting box each leave counters, health
// state, and sibling chains consistent.
func TestSupervisedFaultKinds(t *testing.T) {
	cases := []struct {
		name string
		cfg  map[string]string
		// wantErr is a sentinel the chain error must wrap (nil = chain
		// must succeed).
		wantErr              error
		wantPanics, wantErrs int64
		wantCorrupt          bool
		wantHealth           health.State
	}{
		{
			name:       "panicking",
			cfg:        map[string]string{"panic-every": "1"},
			wantErr:    middlebox.ErrBoxPanic,
			wantPanics: 1, wantErrs: 1,
			wantHealth: health.Healthy, // one failure, threshold 8
		},
		{
			name:       "erroring",
			cfg:        map[string]string{"error-every": "1"},
			wantErr:    errors.New("faulty: injected error"),
			wantErrs:   1,
			wantHealth: health.Healthy,
		},
		{
			name:        "corrupting",
			cfg:         map[string]string{"corrupt-every": "1"},
			wantCorrupt: true,
			// Well-formed-but-wrong output is invisible to the
			// supervisor: no oracle, no failure, Healthy.
			wantHealth: health.Healthy,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Duration(0)
			rt := supRuntime(&now)
			_, faulty := supChain(t, rt, &now, tc.cfg)

			// A sibling chain owned by another user, sharing the runtime.
			sib, err := rt.Instantiate("bob", "passthru", nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.BuildChain("bob", "side", []string{sib.ID}, nil); err != nil {
				t.Fatal(err)
			}
			now += middlebox.DefaultBootDelay

			pkt := supPacket(t)
			out, _, err := rt.ExecuteChain("alice/c", pkt)
			if tc.wantErr != nil {
				if err == nil || !strings.Contains(err.Error(), strings.TrimPrefix(tc.wantErr.Error(), "middlebox: ")) {
					t.Fatalf("chain err = %v, want wrapping %v", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatalf("chain err = %v, want success", err)
			}
			if tc.wantCorrupt {
				if out == nil || len(out) != len(pkt) {
					t.Fatalf("corrupting chain returned %d bytes, want %d", len(out), len(pkt))
				}
				diff := 0
				for i := range out {
					if out[i] != pkt[i] {
						diff++
					}
				}
				if diff != 1 {
					t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
				}
			}
			if faulty.Panics != tc.wantPanics || faulty.Errors != tc.wantErrs {
				t.Fatalf("panics/errors = %d/%d, want %d/%d", faulty.Panics, faulty.Errors, tc.wantPanics, tc.wantErrs)
			}
			if got := faulty.Health(); got != tc.wantHealth {
				t.Fatalf("health = %v, want %v", got, tc.wantHealth)
			}

			// The sibling chain is untouched by alice's fault.
			if out, _, err := rt.ExecuteChain("bob/side", pkt); err != nil || out == nil {
				t.Fatalf("sibling chain broken by alice's fault: %v", err)
			}
			if sib.Packets != 1 || sib.Errors != 0 {
				t.Fatalf("sibling counters %d/%d, want 1/0", sib.Packets, sib.Errors)
			}

			st := rt.SupervisorStats()
			if st.Panics != tc.wantPanics || st.BoxErrors != tc.wantErrs-tc.wantPanics {
				t.Fatalf("stats %+v inconsistent with %d panics / %d errors", st, tc.wantPanics, tc.wantErrs)
			}
		})
	}
}

// TestBreakerOpensAtThreshold: a fail-open box that always panics trips
// the breaker after exactly BreakerThreshold failures, after which the
// box is bypassed without running its code.
func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.Supervisor = middlebox.SupervisorConfig{BreakerThreshold: 4}
	var events []middlebox.SupEvent
	rt.OnEvent = func(ev middlebox.SupEvent) { events = append(events, ev) }
	_, faulty := supChain(t, rt, &now, map[string]string{"panic-every": "1", "fail": "open"})

	pkt := supPacket(t)
	for i := 0; i < 10; i++ {
		out, _, err := rt.ExecuteChain("alice/c", pkt)
		if err != nil || out == nil {
			t.Fatalf("packet %d: fail-open chain must deliver: %v", i, err)
		}
	}
	if faulty.Health() != health.Down {
		t.Fatalf("health = %v, want broken", faulty.Health())
	}
	box := faulty.Box.(*mbx.FaultyBox)
	if box.Calls() != 4 {
		t.Fatalf("box saw %d calls, want exactly 4 (threshold) before breaker opened", box.Calls())
	}
	if faulty.Panics != 4 {
		t.Fatalf("panics = %d, want 4", faulty.Panics)
	}
	// 6 of the 10 packets crossed the open breaker as bypasses; the 4
	// faulting ones were also bypassed (fail-open fault).
	if faulty.Bypasses != 10 {
		t.Fatalf("bypasses = %d, want 10", faulty.Bypasses)
	}
	st := rt.SupervisorStats()
	if st.BreakerOpens != 1 || st.Panics != 4 || st.Bypasses != 10 {
		t.Fatalf("stats %+v, want 1 open / 4 panics / 10 bypasses", st)
	}
	opens := 0
	for _, ev := range events {
		if ev.Kind == middlebox.EventBreakerOpen {
			opens++
			if ev.Instance != faulty.ID || ev.Type != "faulty" {
				t.Fatalf("breaker event names %s/%s, want %s/faulty", ev.Instance, ev.Type, faulty.ID)
			}
		}
	}
	if opens != 1 {
		t.Fatalf("saw %d breaker-open events, want 1", opens)
	}
}

// TestRestartAfterCooldown: a box that is hard-down for a window breaks,
// restarts after its cooldown with the same identity and cumulative
// counters, survives probation, and is Healthy again.
func TestRestartAfterCooldown(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.Supervisor = middlebox.SupervisorConfig{BreakerThreshold: 3, RestartBackoff: 100 * time.Millisecond, ProbationPackets: 2}
	// Hard-down until t=200ms, clean after.
	_, faulty := supChain(t, rt, &now, map[string]string{"fail-until-ms": "200", "fail": "open", "seed": "7"})
	id, oldBox := faulty.ID, faulty.Box

	pkt := supPacket(t)
	for i := 0; i < 3; i++ { // trip the breaker during the storm
		rt.ExecuteChain("alice/c", pkt)
	}
	if faulty.Health() != health.Down {
		t.Fatalf("health = %v, want broken", faulty.Health())
	}
	packetsSoFar := faulty.Packets

	// Advance past cooldown (opened ~31ms, +100ms backoff) AND the fault
	// window AND the fresh boot delay, then send trial traffic.
	now = 400 * time.Millisecond
	if out, _, err := rt.ExecuteChain("alice/c", pkt); err != nil || out == nil {
		t.Fatalf("post-restart packet: %v", err)
	}
	if faulty.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", faulty.Restarts)
	}
	if faulty.ID != id {
		t.Fatalf("restart changed ID %s -> %s", id, faulty.ID)
	}
	if faulty.Box == oldBox {
		t.Fatal("restart did not rebuild the box via Spec.New")
	}
	if faulty.Packets != packetsSoFar+1 {
		t.Fatalf("packets = %d, want cumulative %d", faulty.Packets, packetsSoFar+1)
	}
	if faulty.Health() != health.Probation {
		t.Fatalf("health = %v, want probation after first clean packet", faulty.Health())
	}
	if out, _, err := rt.ExecuteChain("alice/c", pkt); err != nil || out == nil {
		t.Fatalf("probation packet: %v", err)
	}
	if faulty.Health() != health.Healthy {
		t.Fatalf("health = %v, want healthy after %d probation successes", faulty.Health(), 2)
	}
	st := rt.SupervisorStats()
	if st.Restarts != 1 || st.Recoveries != 1 {
		t.Fatalf("stats %+v, want 1 restart / 1 recovery", st)
	}
}

// TestProbationFailureDoublesBackoff: failing during probation re-opens
// the breaker immediately with a doubled cooldown.
func TestProbationFailureDoublesBackoff(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.Supervisor = middlebox.SupervisorConfig{BreakerThreshold: 2, RestartBackoff: 100 * time.Millisecond}
	var opens []string
	rt.OnEvent = func(ev middlebox.SupEvent) {
		if ev.Kind == middlebox.EventBreakerOpen {
			opens = append(opens, ev.Detail)
		}
	}
	// Always-panicking box: probation can never succeed.
	_, faulty := supChain(t, rt, &now, map[string]string{"panic-every": "1", "fail": "open"})

	pkt := supPacket(t)
	rt.ExecuteChain("alice/c", pkt)
	rt.ExecuteChain("alice/c", pkt) // threshold 2 → breaker opens
	now += time.Second              // past cooldown + boot
	rt.ExecuteChain("alice/c", pkt) // restart, probation packet panics → reopen
	if faulty.Health() != health.Down {
		t.Fatalf("health = %v, want broken after probation failure", faulty.Health())
	}
	if len(opens) != 2 {
		t.Fatalf("saw %d breaker opens, want 2 (%v)", len(opens), opens)
	}
	if !strings.Contains(opens[0], "100ms") || !strings.Contains(opens[1], "200ms") {
		t.Fatalf("backoff did not double: %v", opens)
	}
	if faulty.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", faulty.Restarts)
	}
}

// TestFailPolicyResolution checks the override chain: instance config
// beats spec default beats runtime default.
func TestFailPolicyResolution(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.Supervisor.DefaultPolicy = middlebox.FailOpen

	cases := []struct {
		typ  string
		cfg  map[string]string
		want middlebox.FailPolicy
	}{
		{"faulty", nil, middlebox.FailOpen},                                                          // runtime default (spec unset)
		{"faulty", map[string]string{"fail": "closed"}, middlebox.FailClosed},                        // cfg override
		{"tracker-block", map[string]string{"domains": "x.com"}, middlebox.FailClosed},               // spec default
		{"compressor", nil, middlebox.FailOpen},                                                      // spec default
		{"tracker-block", map[string]string{"domains": "x.com", "fail": "open"}, middlebox.FailOpen}, // cfg beats spec
	}
	for _, tc := range cases {
		inst, err := rt.Instantiate("alice", tc.typ, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.typ, err)
		}
		if inst.Policy != tc.want {
			t.Fatalf("%s cfg=%v: policy %v, want %v", tc.typ, tc.cfg, inst.Policy, tc.want)
		}
	}
	if _, err := rt.Instantiate("alice", "faulty", map[string]string{"fail": "sideways"}); err == nil {
		t.Fatal("bad fail policy accepted")
	}
}

// TestFailClosedBrokenDropsTraffic: once a fail-closed box breaks, the
// chain returns ErrBoxBroken until the box recovers.
func TestFailClosedBrokenDropsTraffic(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.Supervisor = middlebox.SupervisorConfig{BreakerThreshold: 2, DisableRestart: true}
	_, faulty := supChain(t, rt, &now, map[string]string{"panic-every": "1"}) // fail-closed default

	pkt := supPacket(t)
	for i := 0; i < 2; i++ {
		if _, _, err := rt.ExecuteChain("alice/c", pkt); !errors.Is(err, middlebox.ErrBoxPanic) {
			t.Fatalf("packet %d: err = %v, want ErrBoxPanic", i, err)
		}
	}
	if faulty.Health() != health.Down {
		t.Fatalf("health = %v, want broken", faulty.Health())
	}
	now += time.Hour // DisableRestart: time heals nothing
	for i := 0; i < 3; i++ {
		if _, _, err := rt.ExecuteChain("alice/c", pkt); !errors.Is(err, middlebox.ErrBoxBroken) {
			t.Fatalf("broken packet %d: err = %v, want ErrBoxBroken", i, err)
		}
	}
	if faulty.Unavailable != 3 {
		t.Fatalf("unavailable = %d, want 3", faulty.Unavailable)
	}
	if faulty.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 with DisableRestart", faulty.Restarts)
	}
	if st := rt.SupervisorStats(); st.BrokenDrops != 3 {
		t.Fatalf("stats %+v, want 3 broken drops", st)
	}
}

// TestSecurityBypassFlagged: bypassing a fail-open *security* box flags
// the event and counter the auditor consumes.
func TestSecurityBypassFlagged(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.Register(&middlebox.Spec{
		Type: "flaky-scan", Security: true, FailPolicy: middlebox.FailOpen,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			return mbx.NewFaultyBox(nil, mbx.FaultPlan{ErrorEvery: 1}, 1), nil
		},
	})
	var secEvents int
	rt.OnEvent = func(ev middlebox.SupEvent) {
		if ev.Kind == middlebox.EventBypass && ev.Security {
			secEvents++
		}
	}
	inst, err := rt.Instantiate("alice", "flaky-scan", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "sec", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	now += middlebox.DefaultBootDelay

	pkt := supPacket(t)
	for i := 0; i < 5; i++ {
		if out, _, err := rt.ExecuteChain("alice/sec", pkt); err != nil || out == nil {
			t.Fatalf("fail-open security chain must deliver: %v", err)
		}
	}
	st := rt.SupervisorStats()
	if st.Bypasses != 5 || st.SecurityBypasses != 5 {
		t.Fatalf("stats %+v, want 5 bypasses all flagged security", st)
	}
	if secEvents != 5 {
		t.Fatalf("saw %d security bypass events, want 5", secEvents)
	}
}

// TestTerminateEmptiedChainPolicy is the satellite regression test: a
// chain emptied by Terminate follows the failure policy of the boxes it
// lost — fail-closed residue drops traffic, fail-open residue passes it.
func TestTerminateEmptiedChainPolicy(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)

	closed, err := rt.Instantiate("alice", "faulty", nil) // fail-closed default
	if err != nil {
		t.Fatal(err)
	}
	open, err := rt.Instantiate("alice", "faulty", map[string]string{"fail": "open"})
	if err != nil {
		t.Fatal(err)
	}
	chClosed, err := rt.BuildChain("alice", "guard", []string{closed.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	chOpen, err := rt.BuildChain("alice", "opt", []string{open.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	now += middlebox.DefaultBootDelay

	if err := rt.Terminate(closed.ID); err != nil {
		t.Fatal(err)
	}
	if err := rt.Terminate(open.ID); err != nil {
		t.Fatal(err)
	}
	if !chClosed.FailClosedResidue() {
		t.Fatal("chain that lost a fail-closed box must carry residue")
	}
	if chOpen.FailClosedResidue() {
		t.Fatal("chain that lost only fail-open boxes must not carry residue")
	}

	pkt := supPacket(t)
	if _, _, err := rt.ExecuteChain("alice/guard", pkt); !errors.Is(err, middlebox.ErrDropped) {
		t.Fatalf("emptied fail-closed chain: err = %v, want ErrDropped", err)
	}
	if out, _, err := rt.ExecuteChain("alice/opt", pkt); err != nil || out == nil {
		t.Fatalf("emptied fail-open chain must pass: %v", err)
	}
}

// TestAlertRingBounded: the runtime retains at most AlertCap alerts,
// evicts oldest-first, and counts what it dropped.
func TestAlertRingBounded(t *testing.T) {
	now := time.Duration(0)
	rt := supRuntime(&now)
	rt.AlertCap = 8
	rt.Register(&middlebox.Spec{Type: "alerter", New: func(map[string]string) (middlebox.Box, error) {
		return alertEvery{}, nil
	}})
	inst, err := rt.Instantiate("alice", "alerter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "a", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	now += middlebox.DefaultBootDelay

	pkt := supPacket(t)
	for i := 0; i < 20; i++ {
		now += time.Millisecond
		if _, _, err := rt.ExecuteChain("alice/a", pkt); err != nil {
			t.Fatal(err)
		}
	}
	alerts := rt.Alerts("alice")
	if len(alerts) != 8 {
		t.Fatalf("retained %d alerts, want cap 8", len(alerts))
	}
	if rt.AlertsDropped() != 12 {
		t.Fatalf("dropped = %d, want 12", rt.AlertsDropped())
	}
	// Oldest-first: the survivors are packets 13..20.
	for i, a := range alerts {
		if want := middlebox.DefaultBootDelay + time.Duration(13+i)*time.Millisecond; a.At != want {
			t.Fatalf("alert %d at %v, want %v (oldest-first ring order)", i, a.At, want)
		}
	}
	if inst.Alerts != 20 {
		t.Fatalf("instance alert counter %d, want 20 (eviction never loses the count)", inst.Alerts)
	}
}

// alertEvery raises one alert per packet.
type alertEvery struct{}

func (alertEvery) Name() string { return "alerter" }
func (alertEvery) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	ctx.Alert("test", fmt.Sprintf("pkt at %v", ctx.Now))
	return data, middlebox.VerdictPass, nil
}
