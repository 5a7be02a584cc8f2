// Supervised middlebox execution (§3.3 "avoiding harm", "coping with
// unavailability"): a misbehaving box must degrade a PVN gracefully, not
// destroy it. The supervisor converts panics into counted failures,
// tracks per-instance health over a sliding error/panic window, opens a
// circuit breaker when an instance crosses its failure threshold, and
// restarts broken instances with capped exponential backoff. While an
// instance is unavailable its declared failure policy decides what
// happens to traffic: FailClosed drops the packet (the safe default for
// security boxes), FailOpen bypasses the broken hop (the right call for
// optimizers, whose absence merely loses a speedup).
//
// Every supervision decision is observable: counters in
// SupervisorStats, per-instance health via Instance.Health, and an
// optional OnEvent stream the daemon logs and the auditor converts into
// policy-violation evidence (a fail-open bypass of a security box means
// traffic crossed the PVN unscanned — exactly the kind of silent policy
// erosion §3.1's audits exist to surface).
package middlebox

import (
	"fmt"
	"sync/atomic"
	"time"

	"pvn/internal/health"
)

// FailPolicy declares what a chain does with a packet when one of its
// boxes is unavailable (broken, rebooting) or faults on the packet.
type FailPolicy uint8

// Failure policies. The zero value defers to the spec's default, then
// the runtime's, then FailClosed.
const (
	// PolicyDefault inherits: instance config > Spec.FailPolicy >
	// SupervisorConfig.DefaultPolicy > FailClosed.
	PolicyDefault FailPolicy = iota
	// FailClosed drops the packet when the box cannot process it —
	// today's behavior, and the only safe choice for security boxes.
	FailClosed
	// FailOpen forwards the packet past the unavailable box. Traffic
	// keeps flowing; the box's function is lost until it recovers.
	FailOpen
)

// String implements fmt.Stringer.
func (p FailPolicy) String() string {
	switch p {
	case FailClosed:
		return "closed"
	case FailOpen:
		return "open"
	default:
		return "default"
	}
}

// ParseFailPolicy parses "open", "closed" or ""/"default".
func ParseFailPolicy(s string) (FailPolicy, error) {
	switch s {
	case "", "default":
		return PolicyDefault, nil
	case "closed", "fail-closed":
		return FailClosed, nil
	case "open", "fail-open":
		return FailOpen, nil
	}
	return PolicyDefault, fmt.Errorf("middlebox: bad fail policy %q (want open or closed)", s)
}

// SupervisorConfig tunes the supervision layer. The zero value is live:
// breaker at 8 failures, 200 ms initial restart backoff. The rest is
// fixed: a 32-call outcome window, Degraded at half the breaker
// threshold, backoff doubling to a 10 s cap, and 8 probation packets.
type SupervisorConfig struct {
	// BreakerThreshold is how many failures within the window open the
	// breaker. Zero means 8.
	BreakerThreshold int
	// RestartBackoff is the first breaker-open → restart cooldown.
	// Zero means 200 ms.
	RestartBackoff time.Duration
	// DisableRestart leaves broken instances broken: the failure
	// policy applies until the control plane intervenes.
	DisableRestart bool
	// DefaultPolicy applies to instances whose config and spec both
	// leave the policy unset. PolicyDefault means FailClosed.
	DefaultPolicy FailPolicy
}

// supervisorDefaults fills the SupervisorConfig fields left zero and
// fixes the rest of the ladder.
var supervisorDefaults = health.Config{
	Window: 32, Down: 8,
	Backoff: 200 * time.Millisecond, BackoffMax: 10 * time.Second,
	Probation: 8,
}

func (c *SupervisorConfig) ladder() health.Config {
	return health.Config{Down: c.BreakerThreshold, Backoff: c.RestartBackoff}.Or(supervisorDefaults)
}

// SupEventKind classifies a supervision event.
type SupEventKind uint8

// Supervision events.
const (
	// EventPanic: a Box.Process call panicked and was contained.
	EventPanic SupEventKind = iota
	// EventBoxError: a Box.Process call returned an error.
	EventBoxError
	// EventBreakerOpen: an instance crossed its failure threshold.
	EventBreakerOpen
	// EventRestart: a broken instance was rebuilt via Spec.New.
	EventRestart
	// EventRecovered: a restarted instance survived probation.
	EventRecovered
	// EventBypass: a packet crossed a fail-open box unprocessed.
	EventBypass
	// EventBrokenDrop: a packet was dropped by a fail-closed box's
	// unavailability.
	EventBrokenDrop
)

// String implements fmt.Stringer.
func (k SupEventKind) String() string {
	switch k {
	case EventPanic:
		return "panic"
	case EventBoxError:
		return "box-error"
	case EventBreakerOpen:
		return "breaker-open"
	case EventRestart:
		return "restart"
	case EventRecovered:
		return "recovered"
	case EventBypass:
		return "bypass"
	case EventBrokenDrop:
		return "broken-drop"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// SupEvent is one supervision decision, delivered to Runtime.OnEvent.
type SupEvent struct {
	Kind     SupEventKind
	Owner    string
	Instance string
	// Type is the middlebox type ("tls-verify", …).
	Type string
	// Security is the instance spec's Security flag: a Bypass with
	// Security set means traffic crossed the PVN unscanned and should
	// become auditor evidence.
	Security bool
	At       time.Duration
	Detail   string
}

// SupervisorStats is a point-in-time copy of the runtime's supervision
// counters.
type SupervisorStats struct {
	// Panics and BoxErrors count contained Process faults.
	Panics, BoxErrors int64
	// BreakerOpens, Restarts and Recoveries count state transitions.
	BreakerOpens, Restarts, Recoveries int64
	// Bypasses counts packets that crossed a fail-open box
	// unprocessed; SecurityBypasses is the subset where the box was a
	// security box (each of those is a policy violation).
	Bypasses, SecurityBypasses int64
	// BrokenDrops counts packets dropped by fail-closed unavailability.
	BrokenDrops int64
}

// supCounters is the runtime-internal atomic form of SupervisorStats,
// so metrics pollers (the sharded dataplane's Stats) can read while
// workers execute chains.
type supCounters struct {
	panics, boxErrors                  atomic.Int64
	breakerOpens, restarts, recoveries atomic.Int64
	bypasses, securityBypasses         atomic.Int64
	brokenDrops                        atomic.Int64
}

func (s *supCounters) snapshot() SupervisorStats {
	return SupervisorStats{
		Panics:           s.panics.Load(),
		BoxErrors:        s.boxErrors.Load(),
		BreakerOpens:     s.breakerOpens.Load(),
		Restarts:         s.restarts.Load(),
		Recoveries:       s.recoveries.Load(),
		Bypasses:         s.bypasses.Load(),
		SecurityBypasses: s.securityBypasses.Load(),
		BrokenDrops:      s.brokenDrops.Load(),
	}
}

// SupervisorStats returns the supervision counters. The counters are
// atomic, so a metrics poller reads them without taking the runtime's
// lock, even while chains execute.
func (r *Runtime) SupervisorStats() SupervisorStats { return r.sup.snapshot() }

// Health reports the instance's supervision state: the circuit breaker
// is open while it is health.Down and half-open in health.Probation.
func (i *Instance) Health() health.State { return i.ladder.State() }

func (r *Runtime) emit(ev SupEvent) {
	if r.OnEvent != nil {
		r.evMu.Lock()
		defer r.evMu.Unlock()
		r.OnEvent(ev)
	}
}

func (r *Runtime) instEvent(kind SupEventKind, inst *Instance, at time.Duration, detail string) {
	r.emit(SupEvent{
		Kind: kind, Owner: inst.Owner, Instance: inst.ID, Type: inst.Spec.Type,
		Security: inst.Spec.Security, At: at, Detail: detail,
	})
}

// callBox invokes Box.Process with panic containment: a panicking box
// yields an ErrBoxPanic-wrapped error instead of unwinding the worker
// (and with it every chain sharing the runtime).
func callBox(ctx *Context, b Box, data []byte) (out []byte, v Verdict, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			out, v = nil, VerdictDrop
			err = fmt.Errorf("%w: %v", ErrBoxPanic, p)
			panicked = true
		}
	}()
	out, v, err = b.Process(ctx, data)
	return
}

// recordFailure feeds one fault into the instance's ladder. Crossing the
// failure threshold, or any failure in probation, opens the breaker:
// the instance is health.Down until its restart, scheduled with the
// ladder's capped exponential backoff.
func (r *Runtime) recordFailure(inst *Instance, at time.Duration) {
	if st, _ := inst.ladder.Record(false, r.Supervisor.ladder()); st != health.Down {
		return
	}
	inst.restartAt = at + inst.ladder.Backoff()
	r.sup.breakerOpens.Add(1)
	r.instEvent(EventBreakerOpen, inst, at, fmt.Sprintf("restart in %v", inst.ladder.Backoff()))
}

// recordSuccess feeds one clean call into the ladder; enough of them
// close a half-open breaker or clear a degraded mark.
func (r *Runtime) recordSuccess(inst *Instance, at time.Duration) {
	prev := inst.ladder.State()
	if st, _ := inst.ladder.Record(true, r.Supervisor.ladder()); prev == health.Probation && st == health.Healthy {
		r.sup.recoveries.Add(1)
		r.instEvent(EventRecovered, inst, at, "survived probation")
	}
}

// maybeRestart rebuilds a broken instance once its cooldown has elapsed
// (in simulated time): a fresh Box from Spec.New, a fresh BootDelay, the
// same ID, chain membership and counters. The restart is modelled as
// having been initiated at restartAt, so ReadyAt = restartAt + boot —
// an instance whose cooldown and boot both fit inside a quiet period is
// simply ready when traffic returns.
func (r *Runtime) maybeRestart(inst *Instance, at time.Duration) {
	if r.Supervisor.DisableRestart || at < inst.restartAt {
		return
	}
	box, err := inst.Spec.New(inst.cfg)
	if err != nil {
		// The factory itself is failing: stay broken, widen the retry.
		inst.ladder.Record(false, r.Supervisor.ladder())
		inst.restartAt = at + inst.ladder.Backoff()
		r.instEvent(EventBoxError, inst, at, fmt.Sprintf("restart failed: %v", err))
		return
	}
	inst.Box = box
	inst.ReadyAt = inst.restartAt + inst.Spec.boot()
	inst.Restarts++
	inst.ladder.BeginProbation(r.Supervisor.ladder())
	r.sup.restarts.Add(1)
	r.instEvent(EventRestart, inst, at, fmt.Sprintf("ready at %v (restart #%d)", inst.ReadyAt, inst.Restarts))
}

// noteBypass accounts one packet crossing inst without being processed
// (fail-open policy over a faulting, broken or rebooting box). Bypasses
// of security boxes are flagged for the auditor: that packet crossed
// the PVN unscanned.
func (r *Runtime) noteBypass(inst *Instance, at time.Duration, reason string) {
	inst.Bypasses++
	r.sup.bypasses.Add(1)
	if inst.Spec.Security {
		r.sup.securityBypasses.Add(1)
	}
	r.instEvent(EventBypass, inst, at, reason)
}
