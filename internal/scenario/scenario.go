// Package scenario is the adversarial soak harness: a deterministic,
// seeded engine that composes concurrent failure storms over a running
// core+overlay system and checks global invariants between
// events and at quiesce (ROADMAP item 3 — the regression net that lets
// the scale/refactor items change machinery aggressively).
//
// Every prior experiment exercises one failure mechanism at a time:
// E13 loses control messages, E14 crashes middleboxes, E15 kills a
// tunnel endpoint, E16 tampers replicas. The paper's actual claim is
// that the PVN keeps a user's policy and connectivity intact *across*
// hostile, churning edge networks — which is a statement about the
// composition: leases lapsing while a device roams, a provider
// crashing mid-handover, colluding providers corrupting traffic while
// their overlay replicas lie. The engine schedules those storms
// concurrently on one simulated clock, from one seeded RNG, so any
// violation reproduces bit-for-bit from its seed.
//
// Storms (composable, overlapping in time):
//
//   - roam storm: many devices make-before-break roam off a dying
//     network inside one window (stadium/train);
//   - flap episode: a multihomed device flaps between two networks
//     under overlapping control-channel outage windows while its
//     tunnel path crashes and a prober drives failover;
//   - adversarial campaign: colluding providers cut their control
//     channels, their deployed FaultyBoxes panic and corrupt traffic,
//     their overlay replicas tamper stored records, and their
//     reputation gossip lies — all at once;
//   - background churn: lease renewals are skipped at random, sweeps
//     reclaim lapsed deployments, providers crash and restart
//     (Restart + ReclaimOrphans), devices politely detach and return.
//
// GlobalInvariants (checked every few events and strictly at quiesce):
//
//   - invoice-drift: per device, bytes metered by matched flow rules ==
//     invoiced bytes + bytes forfeited to sweeps/crashes + live usage
//     not yet invoiced (exactly zero pending at quiesce);
//   - lease-leak: per network, the deployment book and the actual
//     switch rules, meters, runtime chains and instances agree in both
//     directions (no orphans, nothing missing);
//   - blackout: no device goes unserved longer than the configured
//     detection+failover bound;
//   - ledger-complete: every completed roam and tunnel failover has a
//     redirection record, every detected corruption a violation;
//   - overlay-tamper: no tampered module manifest is ever installed.
//
// Violations carry the seed and the tail of the event trace; Report
// prints a one-command reproduction line (pvnbench -soak -seed=N).
package scenario

import (
	"fmt"
	"strings"
	"time"
)

// Config parameterizes a soak world. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	// Seed drives every random choice in the run.
	Seed uint64

	// Networks is the number of PVN-capable access networks (>= 2).
	// The last one is the colluding (adversarial) provider when
	// campaigns run.
	Networks int
	// Devices is the steady-state device population.
	Devices int
	// CampaignDevices is how many devices deploy a PVNC containing the
	// colluding provider's fault-injection middlebox (panics and
	// corruption ride their chains continuously).
	CampaignDevices int
	// FlapDevices is how many devices are multihomed (tunnel endpoints
	// plus probed paths) and eligible for cellular<->WiFi flap
	// episodes.
	FlapDevices int
	// OverlayNodes sizes the discovery overlay (0 disables it and the
	// campaign's tamper/liar arms).
	OverlayNodes int

	// InitialNetwork pins every device's first attachment to one
	// network index (the roam storm's "dying network"); -1 spreads
	// devices round-robin.
	InitialNetwork int

	// LeaseTTL configures deployment leases on every network (0
	// disables lease churn).
	LeaseTTL time.Duration
	// RenewEvery is the renewal cadence; RenewSkipRate is the chance a
	// device neglects one renewal (driving sweeps).
	RenewEvery    time.Duration
	RenewSkipRate float64
	// SweepEvery is the per-network lease sweep cadence.
	SweepEvery time.Duration

	// HeartbeatEvery is the measurement cadence: every beat, every
	// device sends TrafficPerBeat packets through its session.
	HeartbeatEvery time.Duration
	TrafficPerBeat int

	// MeanOpInterval spaces the randomly composed scenario events
	// (exponential); CheckEveryOps runs the invariant sweep every N
	// events.
	MeanOpInterval time.Duration
	CheckEveryOps  int

	// RepairDelay is how long a device waits after noticing its
	// deployment vanished (sweep/crash) before reconnecting.
	RepairDelay time.Duration
	// BlackoutBound is the invariant: no device may go unserved longer
	// than this (detection + repair + one beat of slack).
	BlackoutBound time.Duration
	// DrainDeadline bounds handover drains.
	DrainDeadline time.Duration

	// Weights biases the random composition mode per op kind (see
	// opKinds); nil uses defaults. Only listed kinds run.
	Weights map[string]int
}

// DefaultConfig is the standard soak world: 4 networks (one colluding),
// 8 devices (one adversarial, one multihomed), a 16-node overlay, lease
// churn on, and event pacing tuned so a million simulated seconds stays
// a seconds-scale wall-clock run under -race.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		Networks:        4,
		Devices:         8,
		CampaignDevices: 1,
		FlapDevices:     1,
		OverlayNodes:    16,
		InitialNetwork:  -1,
		LeaseTTL:        240 * time.Second,
		RenewEvery:      60 * time.Second,
		RenewSkipRate:   0.1,
		SweepEvery:      120 * time.Second,
		HeartbeatEvery:  40 * time.Second,
		TrafficPerBeat:  1,
		MeanOpInterval:  200 * time.Second,
		CheckEveryOps:   25,
		RepairDelay:     5 * time.Second,
		BlackoutBound:   150 * time.Second,
		DrainDeadline:   2 * time.Second,
	}
}

// opKinds is the random composition repertoire, in weight-table order.
var opKinds = []string{"roam", "flap", "crash", "campaign", "fetch", "detach"}

// defaultWeights is the standard storm mix.
var defaultWeights = map[string]int{
	"roam": 4, "flap": 2, "crash": 1, "campaign": 1, "fetch": 2, "detach": 2,
}

// Violation is one invariant breach, tagged with the seed's event trace
// position for reproduction.
type Violation struct {
	At        time.Duration
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[t=%v] %s: %s", v.At, v.Invariant, v.Detail)
}

// Event is one trace entry (scheduled op, storm phase, violation).
type Event struct {
	At     time.Duration
	Kind   string
	Detail string
}

// traceCap bounds the retained trace ring; violations always report
// the tail leading up to them.
const traceCap = 512

// Summary is the machine-readable outcome of a run, for experiment
// rows and the soak CLI.
type Summary struct {
	SimTime      time.Duration
	Ops          int64
	Sent         int64
	Served       int64
	Lost         int64
	Roams        int64
	RoamFails    int64
	Failovers    int64
	Crashes      int64
	Sweeps       int64
	Invoices     int64
	Corrupts     int64
	Fetches      int64
	Installs     int64
	Rejects      int64
	EvilInstalls int64
	GossipLies   int64
	Violations   int
}

// Report renders the seed, violations and trace tail with a
// one-command reproduction line — satellite: any invariant failure
// reproduces with one flag.
func (e *Engine) Report() string {
	var b strings.Builder
	sum := e.Summary()
	fmt.Fprintf(&b, "scenario seed=%d sim=%v ops=%d sent=%d served=%d lost=%d roams=%d failovers=%d crashes=%d sweeps=%d\n",
		e.cfg.Seed, e.W.Clock.Now(), sum.Ops, sum.Sent, sum.Served, sum.Lost, sum.Roams, sum.Failovers, sum.Crashes, sum.Sweeps)
	if len(e.violations) == 0 {
		b.WriteString("invariants: all clean\n")
	} else {
		fmt.Fprintf(&b, "INVARIANT VIOLATIONS (%d):\n", len(e.violations))
		for _, v := range e.violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		b.WriteString("event trace tail:\n")
		tail := e.trace
		if len(tail) > 40 {
			tail = tail[len(tail)-40:]
		}
		for _, ev := range tail {
			fmt.Fprintf(&b, "  [t=%v] %s %s\n", ev.At, ev.Kind, ev.Detail)
		}
		hours := e.W.Clock.Now().Hours()
		fmt.Fprintf(&b, "reproduce: go run ./cmd/pvnbench -soak -seed=%d -sim-hours=%.3f\n", e.cfg.Seed, hours)
	}
	return b.String()
}
