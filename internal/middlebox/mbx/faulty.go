package mbx

import (
	"fmt"
	"strconv"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/netsim"
)

// FaultPlan describes deterministic fault injection for a FaultyBox —
// the middlebox-level sibling of netsim.FaultInjector. Three injection
// shapes compose:
//
//   - rate-based (ErrorRate/PanicRate/CorruptRate): each call
//     draws from the box's seeded RNG, so a run is reproducible
//     bit-for-bit given the seed and call order;
//   - modulo-based (ErrorEvery/PanicEvery/CorruptEvery): call #N, #2N, …
//     fault, independent of any RNG — reproducible under any
//     interleaving that preserves total call count;
//   - time-windowed (FailUntil): every call before the simulated
//     deadline faults, which makes breaker/restart experiments exact —
//     the box is hard-down for a known window and clean after.
type FaultPlan struct {
	// ErrorRate / PanicRate / CorruptRate are per-call probabilities in
	// [0,1], drawn from the seeded RNG.
	ErrorRate, PanicRate, CorruptRate float64
	// ErrorEvery / PanicEvery / CorruptEvery fault every Nth call
	// (1 = every call). Zero disables.
	ErrorEvery, PanicEvery, CorruptEvery int
	// FailUntil makes every call before this simulated time fault
	// (FailKind selects how). Zero disables.
	FailUntil time.Duration
	// FailKind is what FailUntil injects: "panic" (default) or "error".
	FailKind string
}

// FaultyBox wraps an inner middlebox (or a pass-through when Inner is
// nil) with seeded, deterministic fault injection: errors, panics and
// output corruption. It exists to drive the supervision layer — panic
// isolation, circuit breakers, failure policies, restart — in tests and
// experiments, the way netsim.FaultInjector drives the control-plane
// retry machinery.
type FaultyBox struct {
	Inner middlebox.Box
	Plan  FaultPlan

	rng   *netsim.RNG
	calls int64

	// Injected counts what the plan actually did.
	Injected struct {
		Errors, Panics, Corrupts int64
	}
}

// NewFaultyBox builds a fault injector around inner (nil = pass-through)
// drawing from a fresh RNG seeded with seed.
func NewFaultyBox(inner middlebox.Box, plan FaultPlan, seed uint64) *FaultyBox {
	return &FaultyBox{Inner: inner, Plan: plan, rng: netsim.NewRNG(seed)}
}

// Name implements middlebox.Box.
func (f *FaultyBox) Name() string { return "faulty" }

// Calls reports how many Process calls the box has seen (across
// restarts of the same Box value; a supervisor restart builds a fresh
// FaultyBox and so resets the count — deterministically, since the seed
// is part of the instance config).
func (f *FaultyBox) Calls() int64 { return f.calls }

// Process implements middlebox.Box.
func (f *FaultyBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	f.calls++

	if f.Plan.FailUntil > 0 && ctx.Now < f.Plan.FailUntil {
		if f.Plan.FailKind == "error" {
			f.Injected.Errors++
			return nil, middlebox.VerdictDrop, fmt.Errorf("faulty: injected error (hard-down until %v)", f.Plan.FailUntil)
		}
		f.Injected.Panics++
		//lint:allow failpolicy injected fault: panicking is this box's job; the supervisor recovers it (TestRestartAfterCooldown)
		panic(fmt.Sprintf("faulty: injected panic (hard-down until %v)", f.Plan.FailUntil))
	}

	every := func(n int) bool { return n > 0 && f.calls%int64(n) == 0 }
	// Draw every configured rate each call, so the RNG sequence (and
	// with it the whole run) is a pure function of seed and call count.
	pPanic := f.Plan.PanicRate > 0 && f.rng.Bool(f.Plan.PanicRate)
	pErr := f.Plan.ErrorRate > 0 && f.rng.Bool(f.Plan.ErrorRate)
	pCorrupt := f.Plan.CorruptRate > 0 && f.rng.Bool(f.Plan.CorruptRate)

	if pPanic || every(f.Plan.PanicEvery) {
		f.Injected.Panics++
		//lint:allow failpolicy injected fault: panicking is this box's job; the supervisor recovers it (TestSupervisedFaultKinds "panicking", TestPipelinePanicStormRace)
		panic(fmt.Sprintf("faulty: injected panic on call %d", f.calls))
	}
	if pErr || every(f.Plan.ErrorEvery) {
		f.Injected.Errors++
		return nil, middlebox.VerdictDrop, fmt.Errorf("faulty: injected error on call %d", f.calls)
	}

	out, v, err := data, middlebox.VerdictPass, error(nil)
	if f.Inner != nil {
		out, v, err = f.Inner.Process(ctx, data)
	}
	if (pCorrupt || every(f.Plan.CorruptEvery)) && v == middlebox.VerdictPass && err == nil {
		f.Injected.Corrupts++
		src := out
		if src == nil {
			src = data
		}
		bad := append([]byte(nil), src...)
		// Flip a deterministic byte: corruption the chain's downstream
		// consumers (checksums, parsers) can notice, the supervisor
		// cannot — there is no oracle for "wrong but well-formed".
		if len(bad) > 0 {
			bad[int(f.calls)%len(bad)] ^= 0xff
		}
		return bad, middlebox.VerdictPass, nil
	}
	return out, v, err
}

// faultKeys are the "faulty" type's config keys, the ones
// faultPlanFromConfig reads.
var faultKeys = []string{"error-rate", "panic-rate", "corrupt-rate", "error-every", "panic-every", "corrupt-every", "fail-until-ms", "fail-kind", "seed"}

// faultPlanFromConfig parses the "faulty" type's instance config, whose
// keys the runtime has checked against faultKeys.
func faultPlanFromConfig(cfg map[string]string) (FaultPlan, uint64, error) {
	var plan FaultPlan
	var seed uint64 = 1
	for key, val := range cfg {
		var err error
		switch key {
		case "error-rate":
			plan.ErrorRate, err = strconv.ParseFloat(val, 64)
		case "panic-rate":
			plan.PanicRate, err = strconv.ParseFloat(val, 64)
		case "corrupt-rate":
			plan.CorruptRate, err = strconv.ParseFloat(val, 64)
		case "error-every":
			plan.ErrorEvery, err = strconv.Atoi(val)
		case "panic-every":
			plan.PanicEvery, err = strconv.Atoi(val)
		case "corrupt-every":
			plan.CorruptEvery, err = strconv.Atoi(val)
		case "fail-until-ms":
			var ms int
			ms, err = strconv.Atoi(val)
			plan.FailUntil = time.Duration(ms) * time.Millisecond
		case "fail-kind":
			if val != "panic" && val != "error" {
				err = fmt.Errorf("want panic or error")
			}
			plan.FailKind = val
		case "seed":
			seed, err = strconv.ParseUint(val, 10, 64)
		}
		if err != nil {
			return plan, 0, fmt.Errorf("faulty: bad %s %q: %v", key, val, err)
		}
	}
	return plan, seed, nil
}
