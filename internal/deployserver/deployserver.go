// Package deployserver implements the access-network side of PVN
// deployment (§3.1): it receives deployment requests, re-validates and
// compiles the PVNC, instantiates the requested middleboxes in the
// runtime, builds isolation-scoped chains, installs meters and flow
// rules into the edge switch, and acknowledges with a deployment cookie
// and a DHCP-refresh signal. Failures produce NACKs with a reason, and
// teardown removes every trace of a deployment atomically.
package deployserver

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/openflow"
	"pvn/internal/pvnc"
)

// Deployment records one installed PVN.
type Deployment struct {
	DeviceID string
	Owner    string
	Cookie   uint64
	// OfferID is the offer this deployment was installed against; it
	// keys duplicate-request suppression (a device retransmitting a
	// deploy over a lossy link is re-ACKed, not NACKed).
	OfferID string
	// Hash is the PVNC hash actually installed (after any reduction).
	Hash string
	// PaidMicro is what the device committed.
	PaidMicro int64
	// InstanceIDs are the middlebox instances created.
	InstanceIDs []string
	// Chains are the runtime chain names ("owner/name").
	Chains []string
	// InstalledAt/ReadyAt bound the setup window; ReadyAt is when the
	// slowest middlebox finishes booting.
	InstalledAt, ReadyAt time.Duration
	// Meters installed for this deployment.
	Meters []string
	// LeaseExpires is when the deployment lapses unless renewed; zero
	// means the lease never expires (the server has no LeaseTTL).
	LeaseExpires time.Duration

	// rules holds the entries installed in each of the server's tables,
	// in tables() order: teardown removes exactly these, and usage and
	// the manifest read them, so none of the three walks the tenants
	// sharing the table.
	rules [2][]*openflow.FlowEntry
}

// Server hosts PVN deployments for one access network.
type Server struct {
	// Provider is the pricing/support policy quoted during discovery.
	Provider *discovery.ProviderPolicy
	// Switch is the edge switch PVN rules install into.
	Switch *openflow.Switch
	// Runtime hosts the middlebox instances.
	Runtime *middlebox.Runtime
	// Now supplies simulated time.
	Now func() time.Duration
	// FetchPVNC resolves a PVNC URI to its source text (deploy requests
	// may carry a cloud-storage URI instead of inline source, §3.1).
	// Nil means URI-based requests are refused.
	FetchPVNC func(uri string) (string, error)
	// ExtraRules, when non-nil, receives every rule and meter write in
	// addition to Switch.Table — how a host that fronts its deployments
	// with a dataplane.Pipeline mirrors them into the pipeline's table
	// (bench/ wires one). Usage and Teardown bill the traffic of both.
	ExtraRules *openflow.FlowTable
	// DevicePort/UpstreamPort are the compile targets.
	DevicePort, UpstreamPort uint16
	// LeaseTTL bounds how long a deployment lives without a Renew call.
	// Zero preserves the legacy behaviour: deployments last until
	// explicit teardown. Nonzero turns deployments into leases a crashed
	// or departed device cannot leak forever (§3.3).
	LeaseTTL time.Duration
	// RenewJitter desynchronizes lease expiries: each grant/renewal adds
	// a per-device offset in [0, RenewJitter) to the expiry, derived
	// from a stable hash of the device ID (deterministic — no RNG).
	// Without it, thousands of co-placed subscribers deployed in one
	// orchestration wave share a single expiry instant and renew in a
	// synchronized storm forever. Zero disables jitter.
	RenewJitter time.Duration
	// Templates, when non-nil, compiles deployments through the shared
	// template cache: subscribers of the same store module share one
	// compiled skeleton and alias its namespace-free action slices
	// instead of each owning a private copy (ROADMAP item 1).
	Templates *pvnc.TemplateCache

	// mu guards the deployment book and cookie counter, and makes each
	// install/teardown one atomic step against the switch and runtime —
	// cmd/pvnd dispatches concurrent client connections straight into
	// these methods. Lock order: mu, then the Runtime's own lock (which
	// is all that orders these methods against chain traffic; dataplane
	// workers never take mu).
	mu          sync.Mutex
	nextCookie  uint64
	deployments map[string]*Deployment // by device ID
}

// New builds a deployment server wired to a switch and runtime.
func New(provider *discovery.ProviderPolicy, sw *openflow.Switch, rt *middlebox.Runtime, now func() time.Duration) *Server {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Server{
		Provider:     provider,
		Switch:       sw,
		Runtime:      rt,
		Now:          now,
		UpstreamPort: 1,
		deployments:  make(map[string]*Deployment),
	}
}

// HandleDM answers discovery on behalf of the provider policy.
func (s *Server) HandleDM(dm *discovery.DM) *discovery.Offer {
	return s.Provider.HandleDM(dm, s.Now())
}

// Deployment returns the active deployment for a device, or nil.
func (s *Server) Deployment(deviceID string) *Deployment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deployments[deviceID]
}

// HandleDeploy installs a PVNC. Every failure path is a NACK; the
// installation itself is all-or-nothing (partial installs are rolled
// back). A retransmission of an already-installed request (same device,
// same offer) is re-ACKed with the original cookie so devices on lossy
// links can retry safely.
func (s *Server) HandleDeploy(req *discovery.DeployRequest) *discovery.DeployResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	nack := func(format string, args ...interface{}) *discovery.DeployResponse {
		return &discovery.DeployResponse{OK: false, Reason: fmt.Sprintf(format, args...)}
	}
	// prior is the device's existing deployment, if any. A request for
	// the PVNC already installed is re-ACKed idempotently (checked below
	// once the source is parsed); a genuinely different config supersedes
	// the stale deployment — torn down only once the new request has
	// fully validated and compiled, so a bad request never destroys a
	// working deployment.
	prior := s.deployments[req.DeviceID]
	if prior != nil && req.OfferID != "" && prior.OfferID == req.OfferID {
		// Duplicate of the request that installed this deployment
		// (the ACK was lost): idempotent re-ACK.
		return &discovery.DeployResponse{OK: true, Cookie: prior.Cookie, DHCPRefresh: true}
	}
	// Deploys quoting an offer must quote one this provider issued and
	// that is still live; deploys with no offer ID are walk-ins priced
	// at the current book (used by tests and bulk experiments).
	if req.OfferID != "" {
		switch s.Provider.OfferStatus(req.OfferID, s.Now()) {
		case discovery.OfferUnknown:
			return nack("unknown offer %q (never issued, or provider restarted)", req.OfferID)
		case discovery.OfferExpired:
			return nack("offer %q expired", req.OfferID)
		}
	}
	source := req.PVNCSource
	if source == "" && req.PVNCURI != "" {
		if s.FetchPVNC == nil {
			return nack("URI-based PVNCs not supported here")
		}
		fetched, err := s.FetchPVNC(req.PVNCURI)
		if err != nil {
			return nack("fetch %s: %v", req.PVNCURI, err)
		}
		source = fetched
	}
	cfg, err := pvnc.Parse(source)
	if err != nil {
		return nack("unparseable PVNC: %v", err)
	}
	if req.PVNCHash != "" && cfg.Hash() != req.PVNCHash {
		// The fetched object does not match what the device asked for:
		// either the store or the path tampered with it.
		return nack("PVNC hash mismatch: got %.16s..., requested %.16s...", cfg.Hash(), req.PVNCHash)
	}
	if errs := cfg.Validate(); len(errs) > 0 {
		return nack("invalid PVNC: %v", errs[0])
	}
	if prior != nil && cfg.Hash() == prior.Hash {
		// The device's deploy installed but every ACK was lost, so it
		// abandoned the offer, re-discovered and is asking for the PVNC
		// already running (under a new offer ID, or as a walk-in).
		// Re-ACK rather than locking it out until the lease lapses —
		// with LeaseTTL=0 that lockout would be permanent.
		return &discovery.DeployResponse{OK: true, Cookie: prior.Cookie, DHCPRefresh: true}
	}
	// Price check: the device must cover the provider's price for every
	// module it deploys.
	var owed int64
	for _, m := range cfg.Middleboxes {
		price, ok := s.Provider.Supported[m.Type]
		if !ok {
			return nack("middlebox type %q not supported here", m.Type)
		}
		owed += price
	}
	if req.Payment < owed {
		return nack("payment %d below price %d", req.Payment, owed)
	}

	s.nextCookie++
	cookie := s.nextCookie
	// Namespace chains per deployment so the same owner can deploy the
	// same PVNC from several devices without collisions (§3.1).
	namespace := cfg.Owner + "." + req.DeviceID
	copt := pvnc.CompileOptions{
		Cookie:         cookie,
		DevicePort:     s.DevicePort,
		UpstreamPort:   s.UpstreamPort,
		ChainNamespace: namespace,
	}
	var compiled *pvnc.Compiled
	if s.Templates != nil {
		compiled, err = s.Templates.CompileShared(cfg, copt)
	} else {
		compiled, err = pvnc.Compile(cfg, copt)
	}
	if err != nil {
		return nack("compile: %v", err)
	}

	dep := &Deployment{
		DeviceID:    req.DeviceID,
		Owner:       cfg.Owner,
		Cookie:      cookie,
		OfferID:     req.OfferID,
		Hash:        compiled.Hash,
		PaidMicro:   req.Payment,
		InstalledAt: s.Now(),
	}
	if s.LeaseTTL > 0 {
		dep.LeaseExpires = s.Now() + s.LeaseTTL + s.leaseJitter(req.DeviceID)
	}

	// The new request is valid and compiled: retire the deployment it
	// supersedes before installing.
	if prior != nil {
		s.teardownLocked(req.DeviceID)
	}

	// Instantiate middleboxes; on any failure, roll back what exists.
	names := map[string]string{} // local name -> instance ID
	rollback := func() {
		for _, id := range dep.InstanceIDs {
			s.Runtime.Terminate(id)
		}
		for _, ch := range dep.Chains {
			owner, name, _ := cutChain(ch)
			s.Runtime.RemoveChain(owner, name)
		}
		s.uninstall(dep)
	}
	for _, plan := range compiled.Middleboxes {
		inst, err := s.Runtime.Instantiate(cfg.Owner, plan.Type, plan.Config)
		if err != nil {
			rollback()
			return nack("instantiate %s: %v", plan.LocalName, err)
		}
		names[plan.LocalName] = inst.ID
		dep.InstanceIDs = append(dep.InstanceIDs, inst.ID)
		if inst.ReadyAt > dep.ReadyAt {
			dep.ReadyAt = inst.ReadyAt
		}
	}
	for _, ch := range compiled.Chains {
		ids := make([]string, len(ch.Members))
		for i, m := range ch.Members {
			ids[i] = names[m]
		}
		if _, err := s.Runtime.BuildChainIn(cfg.Owner, namespace, ch.Name, ids, cfg.CoveredAddrs()); err != nil {
			rollback()
			return nack("chain %s: %v", ch.Name, err)
		}
		dep.Chains = append(dep.Chains, namespace+"/"+ch.Name)
	}
	for _, m := range compiled.Meters {
		dep.Meters = append(dep.Meters, m.ID)
	}
	now := s.Now()
	for i, t := range s.tables() {
		for _, m := range compiled.Meters {
			t.AddMeter(m.ID, openflow.Meter{RateBps: m.RateBps})
		}
		dep.rules[i] = compiled.Entries()
		t.InstallAll(dep.rules[i], now) // one table write per deployment
	}

	s.deployments[req.DeviceID] = dep
	return &discovery.DeployResponse{OK: true, Cookie: cookie, DHCPRefresh: true}
}

// tables lists every table a deployment is written to: the switch's
// own, then the mirror when one is attached. Each holds its own copy of
// the rules and meters, so each counts only the traffic that crossed it.
func (s *Server) tables() []*openflow.FlowTable {
	if s.ExtraRules != nil {
		return []*openflow.FlowTable{s.Switch.Table, s.ExtraRules}
	}
	return []*openflow.FlowTable{s.Switch.Table}
}

// usage sums the traffic of the deployment's own rules over every
// table. A rule removed early (an operator's delete) keeps its
// counters, so what it carried stays billed.
func (s *Server) usage(dep *Deployment) (packets, bytes int64) {
	for _, es := range dep.rules {
		for _, e := range es {
			p, b := e.Stats()
			packets, bytes = packets+p, bytes+b
		}
	}
	return packets, bytes
}

// uninstall removes a deployment's rules and meters from every table.
func (s *Server) uninstall(dep *Deployment) {
	for i, t := range s.tables() {
		t.RemoveEntries(dep.rules[i])
		for _, m := range dep.Meters {
			t.RemoveMeter(m)
		}
	}
}

func cutChain(s string) (owner, name string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// DeviceIDs returns the IDs of every device with a live deployment,
// sorted — the stable enumeration the scenario harness walks when it
// reconciles the deployment book against the switch and runtime.
func (s *Server) DeviceIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.deployments))
	for id := range s.deployments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// BoxState is one exported middlebox snapshot, keyed by spec type so it
// can be matched to the corresponding instance in another deployment.
type BoxState struct {
	Type string
	Data []byte
}

// ExportBoxStates snapshots every stateful middlebox in a device's
// deployment, in deployment order. It runs under the server lock: a
// roam may export state while a sweep or crash-reclaim is tearing the
// deployment's instances down.
func (s *Server) ExportBoxStates(deviceID string) []BoxState {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep := s.deployments[deviceID]
	if dep == nil {
		return nil
	}
	var out []BoxState
	for _, id := range dep.InstanceIDs {
		inst := s.Runtime.Instance(id)
		if inst == nil {
			continue
		}
		data, ok, err := s.Runtime.ExportState(id)
		if err != nil || !ok {
			continue
		}
		out = append(out, BoxState{Type: inst.Spec.Type, Data: data})
	}
	return out
}

// ImportBoxStates merges exported snapshots into a device's deployment,
// matching by spec type in deployment order, under the server lock. It
// returns how many instances received state.
func (s *Server) ImportBoxStates(deviceID string, states []BoxState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep := s.deployments[deviceID]
	if dep == nil || len(states) == 0 {
		return 0
	}
	used := make([]bool, len(dep.InstanceIDs))
	n := 0
	for _, st := range states {
		for i, id := range dep.InstanceIDs {
			if used[i] {
				continue
			}
			inst := s.Runtime.Instance(id)
			if inst == nil || inst.Spec.Type != st.Type {
				continue
			}
			used[i] = true
			if err := s.Runtime.ImportState(id, st.Data); err == nil {
				n++
			}
			break
		}
	}
	return n
}

// Usage reports traffic counters for a device's deployment.
func (s *Server) Usage(deviceID string) (packets, bytes int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep := s.deployments[deviceID]
	if dep == nil {
		return 0, 0, false
	}
	packets, bytes = s.usage(dep)
	return packets, bytes, true
}

// Teardown removes a deployment: flow rules, chains, instances, meters.
// It returns the final usage counters for billing.
func (s *Server) Teardown(deviceID string) (packets, bytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.teardownLocked(deviceID)
}

func (s *Server) teardownLocked(deviceID string) (packets, bytes int64, err error) {
	dep := s.deployments[deviceID]
	if dep == nil {
		return 0, 0, fmt.Errorf("deployserver: no deployment for %q", deviceID)
	}
	packets, bytes = s.usage(dep)
	s.uninstall(dep)
	for _, ch := range dep.Chains {
		owner, name, _ := cutChain(ch)
		s.Runtime.RemoveChain(owner, name)
	}
	for _, id := range dep.InstanceIDs {
		s.Runtime.Terminate(id)
	}
	delete(s.deployments, deviceID)
	return packets, bytes, nil
}

// Renew extends a deployment's lease by the server's LeaseTTL and
// returns the new expiry. ok is false when the device has no deployment
// (e.g. its lease already lapsed — the device must redeploy). With no
// LeaseTTL configured the call succeeds and the lease stays infinite.
func (s *Server) Renew(deviceID string) (leaseExpires time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep := s.deployments[deviceID]
	if dep == nil {
		return 0, false
	}
	if s.LeaseTTL > 0 {
		dep.LeaseExpires = s.Now() + s.LeaseTTL + s.leaseJitter(deviceID)
	}
	return dep.LeaseExpires, true
}

// leaseJitter returns the device's stable expiry offset in
// [0, RenewJitter). An FNV-1a hash of the device ID keeps the offset
// deterministic across runs and restarts without consuming an RNG
// stream, and spreads a cohort of simultaneously-deployed subscribers
// across the whole jitter window so their renewals never synchronize.
func (s *Server) leaseJitter(deviceID string) time.Duration {
	if s.RenewJitter <= 0 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(deviceID); i++ {
		h ^= uint64(deviceID[i])
		h *= prime64
	}
	return time.Duration(h % uint64(s.RenewJitter))
}

// Forfeit is one deployment's final usage when it ends without an
// invoice: its lease lapsed (SweepExpired) or its provider crashed
// (Crash). Billing for that traffic happens out of band, if at all; the
// scenario harness and the orchestrator use these rows to keep their
// byte accounting exact.
type Forfeit struct {
	DeviceID       string
	Cookie         uint64
	Packets, Bytes int64
}

// forfeitsLocked lists the usage of every deployment pick accepts, in
// device-ID order (deterministic across runs).
func (s *Server) forfeitsLocked(pick func(*Deployment) bool) []Forfeit {
	var rows []Forfeit
	for id, dep := range s.deployments {
		if pick(dep) {
			packets, bytes := s.usage(dep)
			rows = append(rows, Forfeit{DeviceID: id, Cookie: dep.Cookie, Packets: packets, Bytes: bytes})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].DeviceID < rows[j].DeviceID })
	return rows
}

// SweepExpired tears down every deployment whose lease has lapsed and
// returns what each forfeits, in device-ID order. cmd/pvnd runs it at
// the start of every request; simulations call it from scheduled events.
func (s *Server) SweepExpired() []Forfeit {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.Now()
	swept := s.forfeitsLocked(func(dep *Deployment) bool {
		return dep.LeaseExpires > 0 && now >= dep.LeaseExpires
	})
	for _, f := range swept {
		// Listed under this lock, so the teardown finds it and cannot fail.
		_, _, _ = s.teardownLocked(f.DeviceID)
	}
	return swept
}

// Crash simulates the provider crashing: every booked deployment's usage
// is forfeited (the book dies with the process, so none of it is ever
// invoiced), then Restart loses the book and ReclaimOrphans mops up the
// state it leaked. It returns the forfeits, in device-ID order, and what
// ReclaimOrphans reclaimed.
func (s *Server) Crash() (forfeits []Forfeit, rules, meters, chains, instances int) {
	s.mu.Lock()
	forfeits = s.forfeitsLocked(func(*Deployment) bool { return true })
	s.mu.Unlock()
	s.Restart()
	rules, meters, chains, instances = s.ReclaimOrphans()
	return forfeits, rules, meters, chains, instances
}

// Restart simulates the deploy-server process crashing and coming back:
// all in-memory control state (deployment book, offer book) is lost,
// while the switch rules, meters and runtime instances it installed
// keep running — leaked state a fresh process no longer tracks.
// ReclaimOrphans is the recovery path that mops those up.
func (s *Server) Restart() {
	s.mu.Lock()
	s.deployments = make(map[string]*Deployment)
	s.mu.Unlock()
	s.Provider.ForgetOffers()
}

// ReclaimOrphans removes every switch rule, meter, runtime chain and
// instance that no tracked deployment owns — the state a crash leaked.
// It assumes the switch and runtime are exclusively this server's (true
// for pvnd and the experiment harnesses) and reports what it reclaimed.
func (s *Server) ReclaimOrphans() (rules, meters, chains, instances int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cookies := map[uint64]bool{}
	keepMeter := map[string]bool{}
	keepChain := map[string]bool{}
	keepInst := map[string]bool{}
	for _, dep := range s.deployments {
		cookies[dep.Cookie] = true
		for _, m := range dep.Meters {
			keepMeter[m] = true
		}
		for _, ch := range dep.Chains {
			keepChain[ch] = true
		}
		for _, id := range dep.InstanceIDs {
			keepInst[id] = true
		}
	}
	// The tables hold identical rule and meter sets; the reported counts
	// are the switch's own.
	for i, t := range s.tables() {
		r, m := reclaimTable(t, cookies, keepMeter)
		if i == 0 {
			rules, meters = r, m
		}
	}
	for _, key := range s.Runtime.ChainKeys() {
		if !keepChain[key] {
			owner, name, _ := cutChain(key)
			s.Runtime.RemoveChain(owner, name)
			chains++
		}
	}
	for _, id := range s.Runtime.InstanceIDs() {
		if !keepInst[id] {
			s.Runtime.Terminate(id)
			instances++
		}
	}
	return rules, meters, chains, instances
}

// reclaimTable removes every rule whose cookie and every meter whose id
// is not in the keep sets, and reports how many of each it removed.
func reclaimTable(t *openflow.FlowTable, cookies map[uint64]bool, keepMeter map[string]bool) (rules, meters int) {
	// Every orphaned cookie first (repeats are harmless), then one pass
	// and one table write.
	var orphans []uint64
	for _, e := range t.Entries() {
		if !cookies[e.Cookie] {
			orphans = append(orphans, e.Cookie)
		}
	}
	rules = t.RemoveByCookie(orphans...)
	for _, id := range t.MeterIDs() {
		if !keepMeter[id] {
			t.RemoveMeter(id)
			meters++
		}
	}
	return rules, meters
}

// Manifest describes what is actually installed for a device — the input
// to attestation (§3.1 "Auditor"). An honest server reports reality; a
// dishonest one can lie, which is exactly what the auditor's checks are
// for.
type Manifest struct {
	DeviceID string   `json:"device_id"`
	Owner    string   `json:"owner"`
	PVNCHash string   `json:"pvnc_hash"`
	Chains   []string `json:"chains"`
	// InstanceTypes lists the middlebox types actually running.
	InstanceTypes []string `json:"instance_types"`
	Cookie        uint64   `json:"cookie"`
	RuleCount     int      `json:"rule_count"`
}

// BuildManifest reports the installed state for a device, or nil when no
// deployment exists.
func (s *Server) BuildManifest(deviceID string) *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	dep := s.deployments[deviceID]
	if dep == nil {
		return nil
	}
	m := &Manifest{
		DeviceID: deviceID,
		Owner:    dep.Owner,
		PVNCHash: dep.Hash,
		Chains:   append([]string(nil), dep.Chains...),
		Cookie:   dep.Cookie,
	}
	for _, id := range dep.InstanceIDs {
		if inst := s.Runtime.Instance(id); inst != nil {
			m.InstanceTypes = append(m.InstanceTypes, inst.Spec.Type)
		}
	}
	m.RuleCount = s.Switch.Table.CountFiled(dep.rules[0])
	return m
}
