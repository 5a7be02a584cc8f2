// Package discovery implements the PVN Discovery and Deployment Protocol
// (§3.1): discovery messages with sequence numbers and requested
// standards/resources, provider offers with per-module pricing and
// expiry, the device-side negotiator with the paper's three fallback
// options (wait for a better offer, renegotiate a subset, deploy only
// what is offered free), and deployment requests/responses.
//
// The package is transport-independent: messages are plain JSON-able
// structs moved by netsim in simulations and by the TCP daemon in
// cmd/pvnd.
package discovery

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pvn/internal/pvnc"
)

// StandardMatchAction is the rule language this implementation speaks;
// providers and devices must share at least one standard.
const StandardMatchAction = "match-action/1"

// StandardMiddlebox is the middlebox container format.
const StandardMiddlebox = "mbx/1"

// DM is a discovery message, broadcast when a device attaches to a
// network (paper: during DHCP negotiation or via UPnP-style protocols).
type DM struct {
	// Seq increments for each discovery attempt by this device.
	Seq uint64 `json:"seq"`
	// DeviceID identifies the requesting device.
	DeviceID string `json:"device_id"`
	// Standards lists the languages/standards the PVNC uses.
	Standards []string `json:"standards"`
	// PVNCHash identifies the configuration (the PVNC itself may be
	// fetched from cloud storage by URI; the hash binds the two).
	PVNCHash string `json:"pvnc_hash"`
	// PVNCURI optionally points at a globally accessible PVNC object.
	PVNCURI string `json:"pvnc_uri,omitempty"`
	// RequiredTypes are the middlebox types the PVNC instantiates.
	RequiredTypes []string `json:"required_types"`
	// Resources estimates the footprint of the requested deployment.
	Resources pvnc.Estimate `json:"resources"`
}

// Offer is a provider's response to a DM.
type Offer struct {
	OfferID  string `json:"offer_id"`
	Provider string `json:"provider"`
	// DMSeq echoes the sequence number of the DM this offer answers, so
	// a device retrying over a lossy channel can discard offers that
	// belong to an earlier attempt (stale-reply suppression).
	DMSeq uint64 `json:"dm_seq,omitempty"`
	// DeployServer is where to send the deployment request.
	DeployServer string   `json:"deploy_server"`
	Standards    []string `json:"standards"`
	// SupportedTypes is the subset of RequiredTypes the provider can
	// host (may be all of them).
	SupportedTypes []string `json:"supported_types"`
	// PricePerModule maps middlebox type to price in microcredits; 0
	// means the module is free (e.g. ad-funded tier, §3.3).
	PricePerModule map[string]int64 `json:"price_per_module"`
	// TotalCost prices the supported subset of the request.
	TotalCost int64 `json:"total_cost"`
	// ExpiresAt is simulated time after which the offer is void.
	ExpiresAt time.Duration `json:"expires_at"`
}

// SupportsAll reports whether the offer covers every required type.
func (o *Offer) SupportsAll(required []string) bool {
	sup := map[string]bool{}
	for _, t := range o.SupportedTypes {
		sup[t] = true
	}
	for _, t := range required {
		if !sup[t] {
			return false
		}
	}
	return true
}

// DeployRequest asks a provider to install a PVNC. Exactly one of
// PVNCSource and PVNCURI is set: the paper allows the configuration to
// be "stored on the device or provided to an access network as a URI to
// a globally accessible PVNC object (e.g., in cloud storage)" (§3.1).
type DeployRequest struct {
	OfferID  string `json:"offer_id"`
	DeviceID string `json:"device_id"`
	// PVNCSource is the full configuration text (possibly reduced
	// during negotiation).
	PVNCSource string `json:"pvnc_source,omitempty"`
	// PVNCURI points at the configuration object; PVNCHash binds the
	// request to its exact content so neither the store nor the network
	// can substitute a different configuration.
	PVNCURI  string `json:"pvnc_uri,omitempty"`
	PVNCHash string `json:"pvnc_hash,omitempty"`
	// Payment is the amount the device commits, in microcredits.
	Payment int64 `json:"payment"`
}

// DeployResponse acknowledges or rejects a deployment.
type DeployResponse struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	// Cookie identifies the installed deployment for teardown/billing.
	Cookie uint64 `json:"cookie,omitempty"`
	// DHCPRefresh tells the device to refresh its lease to pick up new
	// addressing (§3.1).
	DHCPRefresh bool `json:"dhcp_refresh,omitempty"`
}

// ProviderPolicy is the access network's stance toward PVN requests.
type ProviderPolicy struct {
	Provider     string
	DeployServer string
	Standards    []string
	// Supported maps hosted middlebox types to per-module prices in
	// microcredits (0 = free).
	Supported map[string]int64
	// MaxMemoryBytes caps a single deployment's footprint; 0 = no cap.
	MaxMemoryBytes int64
	// OfferTTL is how long offers stay valid. Zero defaults to 30s.
	OfferTTL time.Duration
	// Disabled simulates a network with no PVN support: it never
	// answers DMs (§3.3 "coping with unavailability").
	Disabled bool

	// mu guards the mutable negotiation state below. cmd/pvnd answers
	// DMs from concurrent TCP connections at once.
	mu        sync.Mutex
	nextOffer int
	// issued remembers every outstanding offer's expiry so the deploy
	// server can refuse deploys against unknown or expired offers.
	issued map[string]time.Duration
	// book lists the issued offers in issue order. Every offer lives
	// OfferTTL, so that is expiry order too: pruning pops the expired
	// ones off its head instead of scanning the whole book.
	book []string
	// refused counts DMs answered with no offer because the book held
	// maxOffers live offers.
	refused int64
}

// maxOffers caps a provider's live offers. DMs arrive unauthenticated,
// so without it a flood grows the book to rate × OfferTTL.
const maxOffers = 1 << 16

// OfferState classifies a quoted offer ID at deploy time.
type OfferState int

// Offer states.
const (
	// OfferUnknown means the provider never issued (or has forgotten)
	// this offer ID — e.g. it restarted since quoting it.
	OfferUnknown OfferState = iota
	// OfferExpired means the offer's TTL has passed.
	OfferExpired
	// OfferValid means the offer is live and deployable.
	OfferValid
)

// HandleDM evaluates a discovery message and returns an offer, or nil
// when the provider does not (or cannot) serve the request — including
// a DM that names no device, and when the provider already holds
// maxOffers live offers.
func (pp *ProviderPolicy) HandleDM(dm *DM, now time.Duration) *Offer {
	if pp.Disabled || dm.DeviceID == "" {
		return nil
	}
	if !sharesStandard(pp.Standards, dm.Standards) {
		return nil
	}
	if pp.MaxMemoryBytes > 0 && dm.Resources.MemoryBytes > pp.MaxMemoryBytes {
		return nil
	}
	var supported []string
	prices := map[string]int64{}
	var total int64
	for _, t := range dm.RequiredTypes {
		price, ok := pp.Supported[t]
		if !ok {
			continue
		}
		supported = append(supported, t)
		prices[t] = price
		total += price
	}
	ttl := pp.OfferTTL
	if ttl == 0 {
		ttl = 30 * time.Second
	}
	pp.mu.Lock()
	// Prune dead offers so the book stays bounded by the live set.
	for len(pp.book) > 0 && now >= pp.issued[pp.book[0]] {
		delete(pp.issued, pp.book[0])
		pp.book = pp.book[1:]
	}
	if len(pp.book) >= maxOffers {
		pp.refused++
		pp.mu.Unlock()
		return nil
	}
	pp.nextOffer++
	id := fmt.Sprintf("%s-%d", pp.Provider, pp.nextOffer)
	if pp.issued == nil {
		pp.issued = make(map[string]time.Duration)
	}
	pp.issued[id] = now + ttl
	pp.book = append(pp.book, id)
	pp.mu.Unlock()
	return &Offer{
		OfferID:        id,
		Provider:       pp.Provider,
		DMSeq:          dm.Seq,
		DeployServer:   pp.DeployServer,
		Standards:      pp.Standards,
		SupportedTypes: supported,
		PricePerModule: prices,
		TotalCost:      total,
		ExpiresAt:      now + ttl,
	}
}

// OfferStatus reports whether an offer ID this provider quoted is still
// deployable at now. The deploy server consults it before installing.
func (pp *ProviderPolicy) OfferStatus(id string, now time.Duration) OfferState {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	exp, ok := pp.issued[id]
	if !ok {
		return OfferUnknown
	}
	if now >= exp {
		return OfferExpired
	}
	return OfferValid
}

// ForgetOffers drops the entire offer book — what a provider crash does
// to its in-memory negotiation state.
func (pp *ProviderPolicy) ForgetOffers() {
	pp.mu.Lock()
	pp.issued, pp.book = nil, nil
	pp.mu.Unlock()
}

func sharesStandard(a, b []string) bool {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if set[s] {
			return true
		}
	}
	return false
}

// Strategy is the device's fallback behaviour when an offer is partial or
// too expensive (§3.1 lists these options).
type Strategy int

// Negotiation strategies.
const (
	// StrategyStrict accepts only offers covering the full PVNC within
	// budget.
	StrategyStrict Strategy = iota
	// StrategyReduce accepts partial offers by deploying the supported
	// subset of the PVNC, still within budget.
	StrategyReduce
	// StrategyFreeOnly deploys only the modules offered at zero cost.
	StrategyFreeOnly
)

// Negotiator drives the device side of discovery.
type Negotiator struct {
	Config *pvnc.PVNC
	// BudgetMicro is the maximum the user will pay, in microcredits.
	BudgetMicro int64
	Strategy    Strategy
	DeviceID    string

	seq uint64
}

// NewNegotiator builds a negotiator for a validated configuration.
func NewNegotiator(deviceID string, cfg *pvnc.PVNC, budget int64, strat Strategy) *Negotiator {
	return &Negotiator{DeviceID: deviceID, Config: cfg, BudgetMicro: budget, Strategy: strat}
}

// requiredTypes lists the distinct middlebox types in the config.
func requiredTypes(cfg *pvnc.PVNC) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range cfg.Middleboxes {
		if !seen[m.Type] {
			seen[m.Type] = true
			out = append(out, m.Type)
		}
	}
	sort.Strings(out)
	return out
}

// MakeDM produces the next discovery message (sequence number advances).
func (n *Negotiator) MakeDM() *DM {
	n.seq++
	return &DM{
		Seq:           n.seq,
		DeviceID:      n.DeviceID,
		Standards:     []string{StandardMatchAction, StandardMiddlebox},
		PVNCHash:      n.Config.Hash(),
		RequiredTypes: requiredTypes(n.Config),
		Resources:     n.Config.Estimate(),
	}
}

// Decision is the negotiator's verdict on one offer.
type Decision struct {
	// Accept is true when the device should send a DeployRequest.
	Accept bool
	// Reason explains a rejection.
	Reason string
	// FinalConfig is the (possibly reduced) PVNC to deploy.
	FinalConfig *pvnc.PVNC
	// Cost is the committed payment in microcredits.
	Cost int64
	// Dropped lists PVNC elements lost to reduction.
	Dropped []string
}

// Evaluate applies the strategy to an offer.
func (n *Negotiator) Evaluate(offer *Offer, now time.Duration) Decision {
	if offer == nil {
		return Decision{Reason: "no offer"}
	}
	// An offer is void from the instant it expires (now >= ExpiresAt):
	// the provider's deploy server enforces the same boundary, so a
	// device that accepted at now == ExpiresAt would only be NACKed.
	if now >= offer.ExpiresAt {
		return Decision{Reason: "offer expired"}
	}
	required := requiredTypes(n.Config)

	switch n.Strategy {
	case StrategyStrict:
		if !offer.SupportsAll(required) {
			return Decision{Reason: "partial offer under strict strategy"}
		}
		if offer.TotalCost > n.BudgetMicro {
			return Decision{Reason: fmt.Sprintf("cost %d exceeds budget %d", offer.TotalCost, n.BudgetMicro)}
		}
		return Decision{Accept: true, FinalConfig: n.Config, Cost: offer.TotalCost}

	case StrategyReduce:
		supported := map[string]bool{}
		var cost int64
		for _, t := range offer.SupportedTypes {
			supported[t] = true
			cost += offer.PricePerModule[t]
		}
		// Trim types until the subset fits the budget, dropping the
		// most expensive first (keeps the most functionality per
		// credit). Price ties break by type name (last in sort order
		// goes first) so the reduced config is the same on every run —
		// map iteration order must not leak into the deployed PVNC.
		for cost > n.BudgetMicro {
			names := make([]string, 0, len(supported))
			for t := range supported {
				names = append(names, t)
			}
			sort.Strings(names)
			worst, worstPrice := "", int64(-1)
			for _, t := range names {
				if offer.PricePerModule[t] >= worstPrice {
					worst, worstPrice = t, offer.PricePerModule[t]
				}
			}
			if worst == "" {
				break
			}
			delete(supported, worst)
			cost -= worstPrice
		}
		reduced, dropped, err := pvnc.Reduce(n.Config, supported)
		if err != nil {
			return Decision{Reason: "reduction failed: " + err.Error()}
		}
		return Decision{Accept: true, FinalConfig: reduced, Cost: cost, Dropped: dropped}

	case StrategyFreeOnly:
		free := map[string]bool{}
		for _, t := range offer.SupportedTypes {
			if offer.PricePerModule[t] == 0 {
				free[t] = true
			}
		}
		reduced, dropped, err := pvnc.Reduce(n.Config, free)
		if err != nil {
			return Decision{Reason: "reduction failed: " + err.Error()}
		}
		return Decision{Accept: true, FinalConfig: reduced, Cost: 0, Dropped: dropped}
	}
	return Decision{Reason: "unknown strategy"}
}

// BestOffer picks the acceptable offer with the lowest cost (ties by
// provider name for determinism). It returns the offer, its decision and
// true, or false when nothing is acceptable — the "reject and wait, or
// eschew PVNs entirely" outcome.
func (n *Negotiator) BestOffer(offers []*Offer, now time.Duration) (*Offer, Decision, bool) {
	var bestOffer *Offer
	var bestDec Decision
	for _, o := range offers {
		dec := n.Evaluate(o, now)
		if !dec.Accept {
			continue
		}
		if bestOffer == nil ||
			dec.Cost < bestDec.Cost ||
			(dec.Cost == bestDec.Cost && len(dec.Dropped) < len(bestDec.Dropped)) ||
			(dec.Cost == bestDec.Cost && len(dec.Dropped) == len(bestDec.Dropped) && o.Provider < bestOffer.Provider) {
			bestOffer, bestDec = o, dec
		}
	}
	return bestOffer, bestDec, bestOffer != nil
}

// CounterDM implements the paper's renegotiation option: "the device
// also can choose to send a new DM with a PVNC that includes a subset of
// the original configuration, to retrieve a new price" (§3.1). It
// reduces the negotiator's configuration to the offer's supported types
// and returns the next DM quoting only that subset (with an advanced
// sequence number), plus the reduced config the DM describes. ok is
// false when the offer supports nothing, i.e. there is no subset worth
// quoting.
func (n *Negotiator) CounterDM(offer *Offer) (*DM, *pvnc.PVNC, bool) {
	if offer == nil || len(offer.SupportedTypes) == 0 {
		return nil, nil, false
	}
	supported := map[string]bool{}
	for _, t := range offer.SupportedTypes {
		supported[t] = true
	}
	reduced, _, err := pvnc.Reduce(n.Config, supported)
	if err != nil {
		return nil, nil, false
	}
	n.seq++
	return &DM{
		Seq:           n.seq,
		DeviceID:      n.DeviceID,
		Standards:     []string{StandardMatchAction, StandardMiddlebox},
		PVNCHash:      reduced.Hash(),
		RequiredTypes: requiredTypes(reduced),
		Resources:     reduced.Estimate(),
	}, reduced, true
}

// BuildDeployRequest constructs the deployment request for an accepted
// decision. PVNCHash binds the request to the exact configuration the
// device negotiated, arming the server's tamper check even when the
// source travels inline (a hostile path could rewrite it either way).
func (n *Negotiator) BuildDeployRequest(offer *Offer, dec Decision) *DeployRequest {
	return &DeployRequest{
		OfferID:    offer.OfferID,
		DeviceID:   n.DeviceID,
		PVNCSource: dec.FinalConfig.Source(),
		PVNCHash:   dec.FinalConfig.Hash(),
		Payment:    dec.Cost,
	}
}
