// Make-before-break roaming (§3.3, Fig 1c). The original Roam tore the
// old deployment down before negotiating on the new networks, which
// blackholes every packet sent while the new middleboxes boot — and
// strands the device bare if the new negotiation fails. BeginRoam
// inverts the order: negotiate and deploy on the new networks first,
// migrate stateful middlebox state across, and only then drain and tear
// down the old session. While the new deployment boots, everything
// still rides the old chains; after it is ready, flows the old session
// was carrying keep draining through it until a deadline, and new flows
// pin to the new session immediately.
package core

import (
	"fmt"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/deployserver"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// DefaultDrainDeadline bounds how long in-flight flows keep draining
// through the old session after the new one is ready.
const DefaultDrainDeadline = 200 * time.Millisecond

// RoamOptions tunes a handover.
type RoamOptions struct {
	// DrainDeadline bounds the drain window. Zero means
	// DefaultDrainDeadline; negative means no drain (cut over at ready).
	DrainDeadline time.Duration
	// TeardownFirst reproduces the old break-before-make behaviour
	// (teardown, then Connect) — kept for experiments that measure what
	// make-before-break buys.
	TeardownFirst bool
}

func (o RoamOptions) drainDeadline() time.Duration {
	if o.DrainDeadline == 0 {
		return DefaultDrainDeadline
	}
	if o.DrainDeadline < 0 {
		return 0
	}
	return o.DrainDeadline
}

// exportBoxState snapshots every stateful middlebox in the session's
// deployment. The deployserver does the walking under its own lock —
// a roam may race a lease sweep or crash-reclaim tearing instances
// down.
func exportBoxState(s *Session) []deployserver.BoxState {
	if s.Mode != ModeInNetwork {
		return nil
	}
	return s.Network.Server.ExportBoxStates(s.Device.ID)
}

// importBoxState merges exported snapshots into the new deployment's
// instances, matching by spec type in deployment order. It returns how
// many boxes received state.
func importBoxState(next *Session, states []deployserver.BoxState) int {
	if len(states) == 0 || next.Mode != ModeInNetwork {
		return 0
	}
	n := next.Network.Server.ImportBoxStates(next.Device.ID, states)
	if n > 0 {
		next.logf("handover: migrated state into %d middleboxes", n)
	}
	return n
}

// Handover is an in-progress make-before-break roam: both sessions are
// live, and Process steers each packet to the right one. Complete
// finishes the handover by retiring the old session.
type Handover struct {
	Old, New *Session
	// DrainUntil is when the last old-session flow stops draining
	// through the old chains.
	DrainUntil time.Duration
	// Migrated counts middleboxes that received state from the old
	// deployment.
	Migrated int

	oldFlows map[packet.Flow]bool
	done     bool
}

// SameDeployment reports whether old and new resolved to the very same
// in-network deployment — a same-network roam (wifi flap): HandleDeploy
// re-ACKed the matching configuration with the original cookie, so
// there is nothing to drain or tear down. Callers that account usage
// per deployment (the scenario harness) use this to avoid counting the
// surviving deployment twice.
func (h *Handover) SameDeployment() bool {
	return h.Old.Mode == ModeInNetwork && h.New.Mode == ModeInNetwork &&
		h.Old.Network == h.New.Network && h.Old.Cookie == h.New.Cookie
}

// BeginRoam negotiates and deploys the device's PVN on the new networks
// while the old session keeps serving — the "make". On success it
// returns a live Handover carrying both sessions; the old session is
// untouched until Complete. On failure it returns the error and the old
// session keeps serving: a failed roam never causes a blackout.
func BeginRoam(s *Session, networks []*AccessNetwork, opts RoamOptions) (*Handover, error) {
	states := exportBoxState(s)
	next, err := Connect(s.Device, networks)
	if err != nil {
		return nil, fmt.Errorf("core: roam connect: %w", err)
	}
	h := &Handover{Old: s, New: next, oldFlows: s.activeFlows()}
	if !h.SameDeployment() {
		h.Migrated = importBoxState(next, states)
	}
	now := s.Network.clock()()
	start := now
	if ready := next.ReadyAt(); ready > start {
		start = ready
	}
	h.DrainUntil = start + opts.drainDeadline()
	next.logf("handover: made on %s (%s), draining %d flows until %v",
		next.Network.Name, next.Mode, len(h.oldFlows), h.DrainUntil)
	return h, nil
}

// Steer reports which session would carry a packet processed at the
// current instant: everything rides the old session until the new
// deployment's middleboxes are ready; then flows the old session was
// carrying drain through it until DrainUntil, while new flows pin to
// the new session immediately. Exposed so harnesses that attribute
// served traffic per network (the scenario engine's invoice-drift
// invariant) know which deployment metered each packet.
func (h *Handover) Steer(data []byte) *Session {
	if h.done || h.SameDeployment() {
		return h.New
	}
	now := h.New.Network.clock()()
	if h.New.Mode == ModeInNetwork && now < h.New.ReadyAt() {
		return h.Old
	}
	if now < h.DrainUntil {
		if f, ok := flowOf(data); ok && h.oldFlows[f] {
			return h.Old
		}
	}
	return h.New
}

// Process steers one packet during the handover (see Steer) and runs it
// through the chosen session.
func (h *Handover) Process(data []byte, inPort uint16) (openflow.Disposition, error) {
	return h.Steer(data).Process(data, inPort)
}

// Complete finishes the handover: the old session is retired and its
// exact final invoice returned (every byte it carried, including drained
// packets). For a same-network roam the surviving deployment is invoiced
// to date rather than torn down. Redirection evidence lands in the
// device's ledger when one is attached.
func (h *Handover) Complete() (*billing.Invoice, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	now := h.New.Network.clock()()
	var inv *billing.Invoice
	if h.SameDeployment() {
		_, bytes, _ := h.Old.Network.Server.Usage(h.Old.Device.ID)
		inv = h.Old.invoiceFor(bytes)
		h.New.logf("handover complete: same deployment re-attached (cookie=%d), %d bytes to date", h.New.Cookie, bytes)
	} else {
		var err error
		inv, err = h.Old.Teardown()
		if err != nil {
			return nil, fmt.Errorf("core: roam teardown: %w", err)
		}
		h.New.logf("handover complete: old session on %s retired", h.Old.Network.Name)
	}
	if led := h.New.Device.Ledger; led != nil {
		led.RecordRedirection(auditor.Redirection{
			Provider: h.Old.Network.Name,
			From:     attachment(h.Old),
			To:       attachment(h.New),
			Reason:   "roam",
			At:       now,
		})
	}
	return inv, nil
}

// attachment describes where a session's traffic goes, for redirection
// records.
func attachment(s *Session) string {
	switch s.Mode {
	case ModeInNetwork:
		return "in-network:" + s.Network.Name
	case ModeTunneled:
		return "tunnel:" + s.TunnelEndpoint.Name
	default:
		// A retired session's mode is bare; report where it was attached.
		if s.Cookie != 0 {
			return "in-network:" + s.Network.Name
		}
		if s.TunnelEndpoint != nil {
			return "tunnel:" + s.TunnelEndpoint.Name
		}
		return "bare"
	}
}

// RoamWith moves the device to a new set of access networks under the
// given options — the paper's headline user experience ("the illusion
// that they are in the same, fully controlled and customized network
// environment regardless of which access network they connect to").
// The default is make-before-break: deploy on the new networks, migrate
// middlebox state, then drain and retire the old session, returning its
// exact final invoice. With TeardownFirst it reproduces the old
// break-before-make sequence. On a make-before-break failure the old
// session is returned untouched and still serving. Callers that need to
// steer packets during the drain window use BeginRoam / Handover
// directly.
func RoamWith(s *Session, networks []*AccessNetwork, opts RoamOptions) (*Session, *billing.Invoice, error) {
	if opts.TeardownFirst {
		inv, err := s.Teardown()
		if err != nil {
			return nil, nil, fmt.Errorf("core: roam teardown: %w", err)
		}
		next, err := Connect(s.Device, networks)
		return next, inv, err
	}
	h, err := BeginRoam(s, networks, opts)
	if err != nil {
		return s, nil, err
	}
	inv, err := h.Complete()
	if err != nil {
		return h.New, nil, err
	}
	return h.New, inv, nil
}
