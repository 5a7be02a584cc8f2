// Endpoint health probing (§3.3: "use active measurements to inform the
// costs of alternative locations"). Each endpoint carries a health.Ladder
// — healthy → degraded → down, with a probation half-open state on the
// way back up; the same ladder the middlebox supervisor runs per
// instance — fed by probe outcomes and scored by smoothed probe RTT.
//
// The Prober drives the ladder on the netsim clock: one probe loop per
// endpoint, each probe traversing a netsim.FaultInjector that models the
// interdomain path (its delay draw is the probe RTT; its drops and
// outage windows lose probes). Down endpoints are re-probed at a capped
// exponential backoff so a dead path costs bounded probe traffic.
package tunnel

import (
	"fmt"
	"sync/atomic"
	"time"

	"pvn/internal/health"
	"pvn/internal/netsim"
)

// downTier is the selection tier at and above which an endpoint is
// avoided (see selectionTier).
const downTier = 3

// selectionTier orders health states for endpoint selection: healthy
// first, then degraded/recovering, down last.
func selectionTier(h health.State) int {
	switch h {
	case health.Healthy:
		return 0
	case health.Degraded, health.Probation:
		return 1
	default:
		return downTier
	}
}

// HealthConfig tunes the probe ladder. The zero value is live: a
// 16-probe window, down at 4 losses, degraded at 2, 50 ms probe
// interval, 200 ms probe timeout, down-retry backoff starting at 200 ms
// doubling to a 2 s cap, 3 probation probes.
type HealthConfig struct {
	// Window is the sliding window of recent probe outcomes per
	// endpoint, in probes. Clamped to 64. Zero means 16.
	Window int
	// DownThreshold is how many losses within Window mark the endpoint
	// Down. Zero means 4.
	DownThreshold int
	// DegradedThreshold is how many losses within Window mark it
	// Degraded. Zero means half of DownThreshold.
	DegradedThreshold int
	// ProbeInterval is the per-endpoint probe cadence. Zero means 50 ms.
	ProbeInterval time.Duration
	// ProbeTimeout is how long a probe waits for its answer before
	// counting as lost. Zero means 4× ProbeInterval.
	ProbeTimeout time.Duration
	// RetryBackoff is the first Down-state probe interval; it doubles
	// per consecutive loss while down, capped. Zero means 200 ms.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the doubling. Zero means 2 s.
	RetryBackoffMax time.Duration
	// ProbationProbes is how many consecutive probe successes promote a
	// recovering endpoint back to Healthy. Zero means 3.
	ProbationProbes int
}

// healthDefaults fills the ladder fields of HealthConfig left zero.
var healthDefaults = health.Config{
	Window: 16, Down: 4,
	Backoff: 200 * time.Millisecond, BackoffMax: 2 * time.Second,
	Probation: 3,
}

func (c *HealthConfig) ladder() health.Config {
	return health.Config{
		Window: c.Window, Down: c.DownThreshold, Degraded: c.DegradedThreshold,
		Backoff: c.RetryBackoff, BackoffMax: c.RetryBackoffMax,
		Probation: c.ProbationProbes,
	}.Or(healthDefaults)
}

func (c *HealthConfig) probeInterval() time.Duration {
	if c.ProbeInterval <= 0 {
		return 50 * time.Millisecond
	}
	return c.ProbeInterval
}

func (c *HealthConfig) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return 4 * c.probeInterval()
	}
	return c.ProbeTimeout
}

// Event is one endpoint health transition, delivered to Table.OnEvent.
type Event struct {
	Endpoint string
	From, To health.State
	At       time.Duration
	Detail   string
}

// endpointState is the per-endpoint health + counter block. The atomic
// counters are written by packet workers (Wrap/Route) and metrics
// pollers without the lock; everything else is guarded by Table.mu.
type endpointState struct {
	sent, bytes            atomic.Int64
	probesSent, probesLost atomic.Int64
	failedOver             atomic.Int64

	// The ladder's window counts lost probes; while Down its backoff
	// is the probe interval.
	health.Ladder
	// srtt is the smoothed probe RTT (EWMA, gain 1/8).
	srtt time.Duration
}

// RecordProbe feeds one probe outcome into the endpoint's health ladder
// at simulated time now: ok with the measured rtt, or a loss. It is the
// raw entry point the Prober drives; tests and real daemons with their
// own probe transport call it directly. It returns the endpoint's
// health after the outcome.
func (t *Table) RecordProbe(name string, ok bool, rtt, now time.Duration) health.State {
	t.mu.Lock()
	st := t.states[name]
	if st == nil {
		t.mu.Unlock()
		return health.Healthy
	}
	cfg := t.Health.ladder()
	prev := st.State()
	st.probesSent.Add(1)
	if ok {
		if st.srtt == 0 {
			st.srtt = rtt
		} else {
			st.srtt = (7*st.srtt + rtt) / 8
		}
		if prev == health.Down {
			// An answered probe is the retry: it opens probation and
			// counts as its first success.
			st.BeginProbation(cfg)
		}
	} else {
		st.probesLost.Add(1)
	}
	cur, fails := st.Record(ok, cfg)
	hook := t.OnEvent
	if cur == prev || hook == nil {
		t.mu.Unlock()
		return cur
	}
	ev := Event{Endpoint: name, From: prev, To: cur, At: now}
	switch {
	case ok && prev == health.Down:
		ev.Detail = fmt.Sprintf("probe answered in %v", rtt)
	case ok && prev == health.Probation:
		ev.Detail = fmt.Sprintf("probation cleared (srtt %v)", st.srtt)
	case ok:
		ev.Detail = fmt.Sprintf("loss cleared the window (srtt %v)", st.srtt)
	case prev == health.Probation:
		ev.Detail = fmt.Sprintf("probe lost in probation, retry in %v", st.Backoff())
	case cur == health.Down:
		ev.Detail = fmt.Sprintf("%d of last %d probes lost, retry in %v", fails, cfg.Window, st.Backoff())
	default:
		ev.Detail = fmt.Sprintf("%d of last %d probes lost", fails, cfg.Window)
	}
	t.mu.Unlock()
	hook(ev)
	return cur
}

// probeDelay returns how long the Prober should wait before the named
// endpoint's next probe: the configured interval, or the endpoint's
// current retry backoff while it is down.
func (t *Table) probeDelay(name string) time.Duration {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if st := t.states[name]; st != nil && st.State() == health.Down {
		return st.Backoff()
	}
	return t.Health.probeInterval()
}

// Prober actively probes every endpoint of a Table on the netsim clock.
// Each endpoint's interdomain path is modelled by a netsim.FaultInjector
// (SetPath): a probe rides one Deliver through it, the delivery delay is
// the measured RTT, and a probe that does not arrive within the health
// config's ProbeTimeout counts as lost — drops and outage windows in
// the injector therefore surface as endpoint health, which is exactly
// how the table learns an endpoint died. Endpoints without a registered
// path answer instantly at their configured ExtraRTT (a perfect link).
//
// The Prober is single-goroutine: it runs entirely inside clock
// callbacks and must only be used from the clock-driving goroutine.
type Prober struct {
	tbl     *Table
	clock   *netsim.Clock
	paths   map[string]*netsim.FaultInjector
	running map[string]bool
	stopped bool
}

// NewProber builds a prober over tbl on clock.
func NewProber(tbl *Table, clock *netsim.Clock) *Prober {
	return &Prober{
		tbl:     tbl,
		clock:   clock,
		paths:   make(map[string]*netsim.FaultInjector),
		running: make(map[string]bool),
	}
}

// SetPath models the named endpoint's path with a fault injector. Fork
// one RNG per endpoint so fault sequences stay independent.
func (p *Prober) SetPath(name string, inj *netsim.FaultInjector) { p.paths[name] = inj }

// Path returns the injector modelling the named endpoint's path, or nil.
func (p *Prober) Path(name string) *netsim.FaultInjector { return p.paths[name] }

// Start begins a probe loop for every endpoint currently in the table
// (endpoints added later need another Start). The first probes fire
// immediately at the clock's current instant.
func (p *Prober) Start() {
	for _, name := range p.tbl.Names() {
		if !p.running[name] {
			p.running[name] = true
			p.loop(name)
		}
	}
}

// Stop halts probing; in-flight probe events become no-ops.
func (p *Prober) Stop() { p.stopped = true }

// loop fires one probe and schedules the next at the table's current
// cadence for this endpoint (interval, or down-state backoff).
func (p *Prober) loop(name string) {
	if p.stopped {
		return
	}
	p.probe(name)
	p.clock.Schedule(p.tbl.probeDelay(name), func() { p.loop(name) })
}

// probe sends one probe through the endpoint's path model.
func (p *Prober) probe(name string) {
	inj := p.paths[name]
	sentAt := p.clock.Now()
	if inj == nil {
		e := p.tbl.Endpoint(name)
		if e == nil {
			return
		}
		p.tbl.RecordProbe(name, true, e.ExtraRTT, sentAt)
		return
	}
	timeout := p.tbl.Health.probeTimeout()
	resolved := false
	inj.Deliver(p.clock, func() {
		if p.stopped || resolved {
			return
		}
		rtt := p.clock.Now() - sentAt
		if rtt >= timeout {
			// Arrived after the timeout already counted it lost.
			return
		}
		resolved = true
		p.tbl.RecordProbe(name, true, rtt, p.clock.Now())
	})
	p.clock.Schedule(timeout, func() {
		if p.stopped || resolved {
			return
		}
		resolved = true
		p.tbl.RecordProbe(name, false, 0, p.clock.Now())
	})
}
