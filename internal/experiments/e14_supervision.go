package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/dataplane"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// E14Params parameterizes the supervised-execution experiment.
type E14Params struct {
	// PacketsPerPhase is traffic sent during the fault storm (phase A)
	// and again after the storm lifts (phase B).
	PacketsPerPhase int
	// BreakerThreshold is failures-before-broken for the flaky box.
	BreakerThreshold int
	// Shards sizes the sharded dataplane carrying the traffic.
	Shards int
	Seed   uint64
}

// DefaultE14 is the standard configuration.
var DefaultE14 = E14Params{
	PacketsPerPhase:  600,
	BreakerThreshold: 8,
	Shards:           4,
	Seed:             14,
}

// e14Stats aggregates one scenario run.
type e14Stats struct {
	deliveredA, deliveredB int64
	alertsB                int
	sup                    middlebox.SupervisorStats
	violations             int
}

// E14 measures supervised middlebox execution (§3.3 "avoiding harm"): a
// security middlebox (a PII scanner) is hard-down for a fault window —
// every call panics — while user traffic keeps arriving through the
// sharded dataplane. The per-box failure policy decides the outcome:
// fail-closed sacrifices the user's connectivity to preserve the policy,
// fail-open sacrifices the policy to preserve connectivity — and every
// packet that crosses the broken security box unscanned becomes auditor
// evidence, so the trade is visible, not silent. With restart enabled
// the supervisor reboots the box once its breaker cooldown lapses and
// phase-B traffic is scanned again.
func E14(p E14Params) *Result {
	res := &Result{
		ID:    "E14",
		Title: "supervised execution: breakers, failure policy, restart",
		Claim: "a crashing middlebox degrades its PVN per its failure policy instead of destroying it, and every fail-open bypass of a security box is auditable (paper S3.3)",
		Header: []string{"scenario", "storm delivered", "post delivered", "post scanned",
			"panics", "breaker opens", "restarts", "bypasses", "violations"},
	}

	type scenario struct {
		name    string
		policy  string // cfg["fail"] for the flaky scanner
		restart bool
	}
	scenarios := []scenario{
		{"fail-closed, no restart", "closed", false},
		{"fail-open, no restart", "open", false},
		{"fail-closed + restart", "closed", true},
		{"fail-open + restart", "open", true},
	}

	for _, sc := range scenarios {
		st := runE14(p, sc.policy, sc.restart)
		res.AddRow(sc.name,
			fmt.Sprintf("%d/%d", st.deliveredA, p.PacketsPerPhase),
			fmt.Sprintf("%d/%d", st.deliveredB, p.PacketsPerPhase),
			fmt.Sprint(st.alertsB),
			fmt.Sprint(st.sup.Panics), fmt.Sprint(st.sup.BreakerOpens),
			fmt.Sprint(st.sup.Restarts), fmt.Sprint(st.sup.Bypasses),
			fmt.Sprint(st.violations))

		total := st.deliveredA + st.deliveredB
		switch {
		case sc.policy == "open":
			pct := 100 * float64(total) / float64(2*p.PacketsPerPhase)
			res.Findingf("%s: %.0f%% of packets delivered; %d crossed the scanner unscanned, each one a ledger violation", sc.name, pct, st.violations)
		case sc.restart:
			res.Findingf("%s: storm traffic dropped (%d/%d), post-restart traffic scanned and delivered (%d/%d)",
				sc.name, st.deliveredA, p.PacketsPerPhase, st.alertsB, p.PacketsPerPhase)
		default:
			res.Findingf("%s: broken box pins the chain closed — %d of %d packets delivered across both phases", sc.name, total, 2*p.PacketsPerPhase)
		}
	}

	res.Findingf("the fault storm never crashes the dataplane: panics are contained per-call and the breaker opens after %d failures", p.BreakerThreshold)
	return res
}

// e14Secret is planted in every packet so the PII scanner, when it is
// actually running, alerts on every packet — alerts measure coverage.
const e14Secret = "hunter2"

func runE14(p E14Params, policy string, restart bool) e14Stats {
	const (
		stormEnd = 1 * time.Second // flaky box panics on every call before this
		phaseA   = 100 * time.Millisecond
		phaseB   = 2 * time.Second
	)

	// Manually-advanced clock, atomic because dataplane workers read it
	// concurrently with the driver advancing it between phases.
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Load()) }

	rt := middlebox.NewRuntime(now)
	rt.Supervisor = middlebox.SupervisorConfig{
		BreakerThreshold: p.BreakerThreshold,
		DisableRestart:   !restart,
	}
	mbx.RegisterBuiltins(rt, mbx.Deps{})
	rt.Register(&middlebox.Spec{
		// A PII scanner wrapped in a deterministic fault window: hard
		// down (panicking) until stormEnd, clean after. Security, so
		// fail-open bypasses are auditor evidence.
		Type:     "flaky-scan",
		Security: true,
		// Type-level default; every scenario overrides it per instance
		// with cfg["fail"], which is the axis the experiment sweeps.
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			inner := mbx.NewPIIDetect(mbx.PIIAlert, []string{e14Secret})
			return mbx.NewFaultyBox(inner, mbx.FaultPlan{FailUntil: stormEnd}, p.Seed), nil
		},
	})

	// Every fail-open bypass of the security box becomes one ledger
	// violation, exactly as the daemon wires it. The runtime serializes
	// OnEvent calls, so the ledger needs no extra lock.
	ledger := auditor.NewLedger()
	rt.OnEvent = func(ev middlebox.SupEvent) {
		if ev.Kind == middlebox.EventBypass && ev.Security {
			ledger.RecordViolation(auditor.SecurityBypassViolation("edge-isp", ev.Instance, ev.Detail, ev.At))
		}
	}

	var ids []string
	for _, spec := range []struct{ typ, fail string }{
		{"classifier", ""}, {"flaky-scan", policy}, {"compressor", ""},
	} {
		cfg := map[string]string{}
		if spec.fail != "" {
			cfg["fail"] = spec.fail
		}
		inst, err := rt.Instantiate("alice", spec.typ, cfg)
		if err != nil {
			panic(fmt.Sprintf("e14: instantiate %s: %v", spec.typ, err))
		}
		ids = append(ids, inst.ID)
	}
	if _, err := rt.BuildChain("alice", "guard", ids, nil); err != nil {
		panic(fmt.Sprintf("e14: chain: %v", err))
	}

	var delivered atomic.Int64
	dp := dataplane.New(dataplane.Config{
		Shards: p.Shards,
		// Block, not tail-drop: queue pressure must never eat a packet,
		// so every loss in the table is a supervision decision and the
		// counts are exact for any seed and shard interleaving.
		Policy: dataplane.Block,
		Chains: rt,
		Now:    now,
		OnOutput: func(port uint16, data []byte) {
			delivered.Add(1)
		},
	})
	dp.Table().Install(&openflow.FlowEntry{
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldProto | openflow.FieldDstPort, Proto: packet.IPProtoTCP, DstPort: 80},
		Actions:  []openflow.Action{openflow.ToMiddlebox("alice/guard"), openflow.Output(1)},
	}, 0)
	dp.Start()

	mkPkt := func(i int) []byte {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.14.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: uint16(40000 + i%64), DstPort: 80}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(fmt.Sprintf("password=%s pkt=%d", e14Secret, i)))
		if err != nil {
			panic(err)
		}
		return data
	}

	// Phase A: the storm. Every scanner call panics; the breaker opens
	// after BreakerThreshold contained panics and the failure policy
	// governs the rest of the phase.
	clock.Store(int64(phaseA))
	for i := 0; i < p.PacketsPerPhase; i++ {
		dp.Submit(mkPkt(i), 0)
	}
	dp.Drain()
	deliveredA := delivered.Load()

	// Phase B: the storm has lifted and (with restart enabled) the
	// breaker cooldown and reboot both fit inside the quiet gap.
	clock.Store(int64(phaseB))
	alertsBefore := len(rt.Alerts("alice"))
	for i := 0; i < p.PacketsPerPhase; i++ {
		dp.Submit(mkPkt(p.PacketsPerPhase+i), 0)
	}
	dp.Drain()
	dp.Stop()

	return e14Stats{
		deliveredA: deliveredA,
		deliveredB: delivered.Load() - deliveredA,
		alertsB:    len(rt.Alerts("alice")) - alertsBefore,
		sup:        rt.SupervisorStats(),
		violations: len(ledger.Violations("edge-isp")),
	}
}
