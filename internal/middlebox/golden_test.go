package middlebox_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/netsim"
)

// goldenSupervisorTrace drives one instance of a box whose fault pattern
// changes with every restart (rate-based, modulo-based, hard-down window,
// nearly clean; every fourth Spec.New itself fails) through steps chain
// executions on a clock that advances by a seeded 1..1500 ms per packet —
// sometimes past restartAt, sometimes not — and hashes
// (Health, Restarts, ReadyAt) after each one.
func goldenSupervisorTrace(t *testing.T, sup middlebox.SupervisorConfig, steps int) uint64 {
	t.Helper()
	now := time.Duration(0)
	rt := middlebox.NewRuntime(func() time.Duration { return now })
	rt.Supervisor = sup
	gen := 0
	rt.Register(&middlebox.Spec{Type: "golden", New: func(map[string]string) (middlebox.Box, error) {
		gen++
		var plan mbx.FaultPlan
		switch gen % 5 {
		case 0:
			return nil, errors.New("golden: factory down")
		case 1:
			plan = mbx.FaultPlan{ErrorRate: 0.3, PanicRate: 0.05}
		case 2:
			plan = mbx.FaultPlan{ErrorEvery: 3}
		case 3:
			plan = mbx.FaultPlan{FailUntil: now + 5*time.Second, FailKind: "error", ErrorRate: 0.1}
		case 4:
			plan = mbx.FaultPlan{ErrorRate: 0.12}
		}
		return mbx.NewFaultyBox(nil, plan, uint64(gen)), nil
	}})
	inst, err := rt.Instantiate("alice", "golden", map[string]string{"fail": "open"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "c", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	now += middlebox.DefaultBootDelay
	pkt := supPacket(t)
	rng := netsim.NewRNG(13)
	h := fnv.New64a()
	var rec [17]byte
	for i := 0; i < steps; i++ {
		now += time.Duration(1+rng.Intn(1500)) * time.Millisecond
		if _, _, err := rt.ExecuteChain("alice/c", pkt); err != nil {
			t.Fatalf("step %d: fail-open chain returned %v", i, err)
		}
		rec[0] = uint8(inst.Health())
		binary.LittleEndian.PutUint64(rec[1:], uint64(inst.Restarts))
		binary.LittleEndian.PutUint64(rec[9:], uint64(inst.ReadyAt))
		h.Write(rec[:])
	}
	if inst.Restarts < 20 {
		t.Fatalf("only %d restarts in %d steps: the trace does not exercise the ladder", inst.Restarts, steps)
	}
	return h.Sum64()
}

// TestGoldenSupervisorTrace pins the supervisor's ladder to hashes
// recorded before the state machine moved into internal/health: any
// change to a threshold comparison, a backoff step or the probation
// countdown moves a ReadyAt somewhere in 12k packets.
func TestGoldenSupervisorTrace(t *testing.T) {
	cases := []struct {
		name string
		sup  middlebox.SupervisorConfig
		want uint64
	}{
		{"default", middlebox.SupervisorConfig{}, 0xfd7a02c574bb1ced},
		{"window8-breaker2-probation1", middlebox.SupervisorConfig{Window: 8, BreakerThreshold: 2, ProbationPackets: 1}, 0x3e0d23001c387fa},
	}
	for _, tc := range cases {
		if got := goldenSupervisorTrace(t, tc.sup, 12000); got != tc.want {
			t.Errorf("%s: trace hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
