// Package core is the PVN library proper: it ties the substrates
// together into the lifecycle the paper describes (§3.1) —
//
//	discover → negotiate → deploy → run → audit → teardown
//
// A Device carries a PVNC, a budget and a negotiation strategy. An
// AccessNetwork bundles a provider policy, an edge switch, a middlebox
// runtime, a deployment server and an attester. Connect runs discovery
// against every network in range and either deploys in-network or falls
// back to tunneling toward a trusted PVN host elsewhere (§3.3 "coping
// with unavailability", Fig 1c).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/deployserver"
	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/tunnel"
)

// Errors.
var (
	ErrNoPVNSupport = errors.New("core: no acceptable PVN offer and no trusted tunnel fallback")
	ErrDeployFailed = errors.New("core: deployment rejected")
	ErrNotDeployed  = errors.New("core: session has no in-network deployment")
)

// Device is the user side of a PVN.
type Device struct {
	ID   string
	Addr packet.IPv4Address
	// Config is the validated PVNC to deploy.
	Config *pvnc.PVNC
	// BudgetMicro bounds spending per deployment.
	BudgetMicro int64
	// Strategy picks the fallback behaviour for partial offers.
	Strategy discovery.Strategy
	// Tunnels are the device's off-network PVN locations (cloud, home).
	Tunnels *tunnel.Table
	// Vendors is the platform-vendor trust store attestations verify
	// against.
	Vendors *pki.TrustStore
	// Ledger, when set, receives redirection evidence: handovers and
	// tunnel failovers are recorded so audits can reconstruct where the
	// device's traffic went and why.
	Ledger *auditor.Ledger

	nonce uint64
}

// AccessNetwork is one network a device can attach to.
type AccessNetwork struct {
	Name string
	// Provider is the discovery policy; nil or Disabled means no PVN
	// support.
	Provider *discovery.ProviderPolicy
	// Server installs deployments (nil when unsupported).
	Server *deployserver.Server
	// Attester signs deployment attestations; nil means the provider
	// cannot produce them (audits will fail).
	Attester *auditor.Attester
	// Now supplies simulated time.
	Now func() time.Duration
	// Tariff prices usage for invoicing.
	Tariff billing.Tariff
	// Faults, when set, models this network's control channel: discovery
	// and deployment exchanges the injector cuts are lost in transit (the
	// device simply sees no offer, or no ACK).
	Faults *netsim.FaultInjector

	// AttestationLies, when set, makes the provider attest to the
	// device's requested hash regardless of what actually runs — the
	// dishonest-ISP case. Only TestAuditDetectsLyingProvider sets it;
	// experiment E8 models config tampering in its own simulated
	// providers and never reaches this field.
	AttestationLies bool
}

// clock returns the network's time function, defaulting to zero time.
func (n *AccessNetwork) clock() func() time.Duration {
	if n.Now != nil {
		return n.Now
	}
	return func() time.Duration { return 0 }
}

// Mode says how a session's traffic is protected.
type Mode string

// Session modes.
const (
	// ModeInNetwork means a PVN is deployed in the access network.
	ModeInNetwork Mode = "in-network"
	// ModeTunneled means traffic detours to a remote PVN host.
	ModeTunneled Mode = "tunneled"
	// ModeBare means no PVN protections are active.
	ModeBare Mode = "bare"
)

// Session is one device↔network attachment.
type Session struct {
	Device  *Device
	Network *AccessNetwork
	Mode    Mode
	// Decision records the negotiation outcome.
	Decision discovery.Decision
	// Offer is the accepted offer (nil for tunneled/bare).
	Offer *discovery.Offer
	// Cookie identifies the in-network deployment.
	Cookie uint64
	// TunnelEndpoint is set in ModeTunneled.
	TunnelEndpoint *tunnel.Endpoint
	// Messages narrates the lifecycle for logs and examples.
	Messages []string

	// flows tracks the canonical flows this session has carried, so a
	// handover knows which conversations to drain through the old chains
	// (BeginRoam). Guarded by flowMu: sessions may be processed from
	// dataplane workers.
	flowMu sync.Mutex
	flows  map[packet.Flow]bool
}

func (s *Session) logf(format string, args ...interface{}) {
	s.Messages = append(s.Messages, fmt.Sprintf(format, args...))
}

// flowOf extracts the canonical 5-tuple from a raw IPv4 packet.
func flowOf(data []byte) (packet.Flow, bool) {
	f, ok := packet.FlowOf(packet.Decode(data, packet.LayerTypeIPv4))
	if !ok {
		return packet.Flow{}, false
	}
	return f.Canonical(), true
}

// noteFlow remembers that this session carried the flow.
func (s *Session) noteFlow(f packet.Flow) {
	s.flowMu.Lock()
	if s.flows == nil {
		s.flows = make(map[packet.Flow]bool)
	}
	s.flows[f] = true
	s.flowMu.Unlock()
}

// activeFlows snapshots the flows the session has carried.
func (s *Session) activeFlows() map[packet.Flow]bool {
	s.flowMu.Lock()
	defer s.flowMu.Unlock()
	out := make(map[packet.Flow]bool, len(s.flows))
	for f := range s.flows {
		out[f] = true
	}
	return out
}

// Connect runs discovery and deployment against the networks in range
// and returns the established session. When no offer is acceptable it
// falls back to the best trusted tunnel endpoint; with no such endpoint
// it returns ErrNoPVNSupport alongside a bare session (the caller may
// still use the network unprotected).
func Connect(dev *Device, networks []*AccessNetwork) (*Session, error) {
	neg := discovery.NewNegotiator(dev.ID, dev.Config, dev.BudgetMicro, dev.Strategy)
	dm := neg.MakeDM()

	// Discovery spans every provider in the zone (§3.1 "limited
	// flooding").
	var offers []*discovery.Offer
	offerNet := map[string]*AccessNetwork{}
	for _, n := range networks {
		if n.Server == nil || n.Provider == nil {
			continue
		}
		if n.Faults != nil && n.Faults.Cut(n.clock()()) {
			continue // DM lost in transit; this provider never answers
		}
		if offer := n.Server.HandleDM(dm); offer != nil {
			offers = append(offers, offer)
			offerNet[offer.OfferID] = n
		}
	}

	primary := networks[0]
	s := &Session{Device: dev, Network: primary, Mode: ModeBare}
	s.logf("discovery: dm seq=%d types=%v -> %d offers", dm.Seq, dm.RequiredTypes, len(offers))

	if len(offers) > 0 {
		now := primary.clock()()
		if offer, dec, ok := neg.BestOffer(offers, now); ok {
			if done := s.deploy(offerNet[offer.OfferID], neg, offer, dec); done {
				return s, nil
			}
		} else {
			s.logf("no acceptable offer (strategy=%d budget=%d)", dev.Strategy, dev.BudgetMicro)
		}
	}

	// Fallback: tunnel to the nearest trusted PVN location.
	if dev.Tunnels != nil {
		if ep, ok := dev.Tunnels.BestTrusted(); ok {
			s.Mode = ModeTunneled
			s.TunnelEndpoint = ep
			s.logf("tunneling to %s (extra RTT %v)", ep.Name, ep.ExtraRTT)
			return s, nil
		}
	}
	return s, ErrNoPVNSupport
}

// deploy sends the deployment request and finalizes the session on ACK.
// It reports whether the session is established.
func (s *Session) deploy(n *AccessNetwork, neg *discovery.Negotiator, offer *discovery.Offer, dec discovery.Decision) bool {
	req := neg.BuildDeployRequest(offer, dec)
	if n.Faults != nil && n.Faults.Cut(n.clock()()) {
		s.logf("deploy to %s lost in transit", n.Name)
		return false
	}
	resp := n.Server.HandleDeploy(req)
	if !resp.OK {
		s.logf("deploy NACK from %s: %s", n.Name, resp.Reason)
		return false
	}
	s.Network = n
	s.Mode = ModeInNetwork
	s.Decision = dec
	s.Offer = offer
	s.Cookie = resp.Cookie
	s.logf("deployed on %s: cookie=%d cost=%d dropped=%v dhcp-refresh=%v",
		n.Name, resp.Cookie, dec.Cost, dec.Dropped, resp.DHCPRefresh)
	return true
}

// Process runs one raw IPv4 packet through the session's data plane and
// returns the switch disposition. In tunneled mode the packet is routed
// through the tunnel table — so a probed-dead endpoint fails over to the
// best live one — and encapsulated (the disposition then describes the
// outer packet).
func (s *Session) Process(data []byte, inPort uint16) (openflow.Disposition, error) {
	flow, flowOK := flowOf(data)
	if flowOK {
		s.noteFlow(flow)
	}
	switch s.Mode {
	case ModeInNetwork:
		return s.Network.Server.Switch.Process(data, inPort), nil
	case ModeTunneled:
		name := s.TunnelEndpoint.Name
		if flowOK {
			name, _ = s.Device.Tunnels.Route(name, flow)
		}
		outer, _, err := s.Device.Tunnels.Wrap(name, data)
		if err != nil {
			return openflow.Disposition{}, err
		}
		return openflow.Disposition{Verdict: openflow.VerdictTunnel, TunnelName: name, Data: outer}, nil
	default:
		return openflow.Disposition{Verdict: openflow.VerdictOutput, Data: data, Port: 1}, nil
	}
}

// ReadyAt reports when the deployment's slowest middlebox finishes
// booting (zero for non-deployed modes).
func (s *Session) ReadyAt() time.Duration {
	if s.Mode != ModeInNetwork {
		return 0
	}
	dep := s.Network.Server.Deployment(s.Device.ID)
	if dep == nil {
		return 0
	}
	return dep.ReadyAt
}

// Alerts returns the security/privacy findings the session's middleboxes
// raised.
func (s *Session) Alerts() []middlebox.Alert {
	if s.Mode != ModeInNetwork {
		return nil
	}
	return s.Network.Server.Runtime.Alerts(s.Device.Config.Owner)
}

// Audit challenges the network for an attestation of the deployed
// configuration and verifies it against the device's vendor trust store
// and the hash the device believes it deployed. A nil error means the
// attestation checks out; the active-measurement checks in package
// auditor cover what attestation cannot.
func (s *Session) Audit(nowSeconds int64) error {
	if s.Mode != ModeInNetwork {
		return ErrNotDeployed
	}
	if s.Network.Attester == nil {
		return fmt.Errorf("%w: provider offers no attestation", auditor.ErrUntrustedSigner)
	}
	s.Device.nonce++
	nonce := s.Device.nonce

	manifest := s.Network.Server.BuildManifest(s.Device.ID)
	attestedHash := ""
	if manifest != nil {
		attestedHash = manifest.PVNCHash
	}
	if s.Network.AttestationLies {
		// The dishonest provider claims whatever the device wants to
		// hear.
		attestedHash = s.Decision.FinalConfig.Hash()
	}
	att, err := s.Network.Attester.Attest(auditor.Statement{
		Provider: s.Network.Name,
		DeviceID: s.Device.ID,
		PVNCHash: attestedHash,
		IssuedAt: nowSeconds,
		Nonce:    nonce,
	})
	if err != nil {
		return err
	}
	return auditor.VerifyAttestation(att, s.Device.Vendors, s.Decision.FinalConfig.Hash(), nonce, nowSeconds)
}

// Teardown removes the in-network deployment and returns the final
// invoice under the network's tariff (nil in non-deployed modes).
func (s *Session) Teardown() (*billing.Invoice, error) {
	if s.Mode != ModeInNetwork {
		s.Mode = ModeBare
		return nil, nil
	}
	_, bytes, err := s.Network.Server.Teardown(s.Device.ID)
	if err != nil {
		return nil, err
	}
	inv := s.invoiceFor(bytes)
	s.Mode = ModeBare
	s.logf("teardown: %d bytes carried, invoice %d micro", bytes, inv.TotalMicro)
	return inv, nil
}

// invoiceFor prices the session's deployment for the given byte count
// under the network's tariff.
func (s *Session) invoiceFor(bytes int64) *billing.Invoice {
	var types []string
	for _, m := range s.Decision.FinalConfig.Middleboxes {
		types = append(types, m.Type)
	}
	return billing.GenerateInvoice(s.Network.Name, s.Network.Tariff, billing.Usage{
		User:        s.Device.Config.Owner,
		ModuleTypes: types,
		Bytes:       bytes,
	})
}
