package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/discovery"
	"pvn/internal/netsim"
	"pvn/internal/pvnc"
)

// Errors the control plane returns to submitters.
var (
	// ErrQuotaExceeded rejects an over-quota tenant at admission —
	// placed chains are never degraded to make room for new ones.
	ErrQuotaExceeded = errors.New("orchestrator: tenant quota exceeded")
	// ErrNoCapacity rejects a request no surviving host can take.
	ErrNoCapacity = errors.New("orchestrator: no host fits the request")
	// ErrDeployFailed reports the placed host refused the deployment.
	ErrDeployFailed = errors.New("orchestrator: deployment failed on placed host")
)

// HostHealth is the heartbeat ladder.
type HostHealth int

// Ladder states: every beat resets to alive; missed beats climb.
const (
	HostAlive HostHealth = iota
	HostSuspect
	HostDead
)

// String implements fmt.Stringer.
func (h HostHealth) String() string {
	switch h {
	case HostSuspect:
		return "suspect"
	case HostDead:
		return "dead"
	}
	return "alive"
}

// Host is one edge host under orchestration: a full access-network
// world (switch, runtime, deployserver) plus the control plane's view
// of it.
type Host struct {
	Spec HostSpec
	Net  *core.AccessNetwork

	health           HostHealth
	missed           int
	down             bool
	lastBeat         time.Duration
	usedCPU, usedMem int64
	placed           map[string]bool // chain IDs
}

// Health returns the control plane's current view of the host.
func (h *Host) Health() HostHealth { return h.health }

// HostParams parameterizes NewHost.
type HostParams struct {
	Spec  HostSpec
	Clock *netsim.Clock
	// Supported prices the middlebox modules this host deploys; it is
	// also the per-module tariff (scenario idiom: PerMBMicro 1<<20
	// prices traffic at exactly 1 micro/byte so billing invariants are
	// integer equalities).
	Supported      map[string]int64
	MemoryCapBytes int
	// LeaseTTL/RenewJitter configure the host's deployment leases.
	LeaseTTL, RenewJitter time.Duration
	// Templates, when set, shares compiled PVNC templates across this
	// host's subscribers (and across hosts handed the same cache).
	Templates *pvnc.TemplateCache
}

// NewHost builds an orchestratable edge host.
func NewHost(p HostParams) (*Host, error) {
	n, err := core.NewStandardNetwork(core.NetworkConfig{
		Name: p.Spec.Name,
		Provider: &discovery.ProviderPolicy{
			Provider: p.Spec.Name, DeployServer: "d-" + p.Spec.Name,
			Standards: []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
			Supported: p.Supported,
		},
		Now:            p.Clock.Now,
		Tariff:         billing.Tariff{PerModuleMicro: p.Supported, PerMBMicro: 1 << 20},
		MemoryCapBytes: p.MemoryCapBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("orchestrator: host %s: %w", p.Spec.Name, err)
	}
	n.Server.LeaseTTL = p.LeaseTTL
	n.Server.RenewJitter = p.RenewJitter
	n.Server.Templates = p.Templates
	return &Host{Spec: p.Spec, Net: n, placed: map[string]bool{}}, nil
}

// Quota bounds one tenant's admitted load. Zero fields are unlimited.
type Quota struct {
	MaxChains   int
	MaxCPUMilli int64
	MaxMemBytes int64
}

// PlacementState is where a chain is in its life.
type PlacementState string

// States: placed chains serve; shed chains were browned out (or never
// re-fit after evacuation); parked chains are security chains with no
// capacity — blocked fail-closed, never serving unprotected; retired
// chains were torn down cleanly.
const (
	StatePlaced  PlacementState = "placed"
	StateShed    PlacementState = "shed"
	StateParked  PlacementState = "parked"
	StateRetired PlacementState = "retired"
)

// Placement is the book entry for one chain.
type Placement struct {
	Req       ChainRequest
	Dev       *core.Device
	Sess      *core.Session
	Host      string
	State     PlacementState
	CostMicro int64
}

// Config parameterizes a Cluster.
type Config struct {
	Clock *netsim.Clock
	// Placer defaults to HeuristicPlacer.
	Placer Placer
	// HeartbeatEvery (default 10s) paces per-host liveness probes;
	// SuspectAfter/DeadAfter (default 2/4) are the ladder thresholds in
	// missed beats.
	HeartbeatEvery time.Duration
	SuspectAfter   int
	DeadAfter      int
	// DrainDeadline is passed to the make-before-break handover on
	// evacuation.
	DrainDeadline time.Duration
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota Quota
	Quotas       map[string]Quota
	// OnInvoice receives every invoice the control plane collects
	// (evacuation completions, brownout sheds, teardowns) so callers
	// keep billing accounting exact.
	OnInvoice func(chainID string, inv *billing.Invoice)
}

// Stats counts control-plane outcomes.
type Stats struct {
	Submitted, Placed               int
	RejectedQuota, RejectedCapacity int
	Evacuated, EvacFailed           int
	Shed, SecurityParked, Reparked  int
	Spills                          int
	Heartbeats                      int64
	TotalCostMicro                  int64
}

// Cluster orchestrates chains across hosts.
type Cluster struct {
	cfg        Config
	clock      *netsim.Clock
	hosts      []*Host
	hostByName map[string]*Host
	placements map[string]*Placement
	tenants    map[string]*Quota // live usage per tenant, stored as Quota counts
	stats      Stats
	stopped    bool
}

// New builds a cluster. Clock is required.
func New(cfg Config) *Cluster {
	if cfg.Clock == nil {
		panic("orchestrator: Config.Clock is required")
	}
	if cfg.Placer == nil {
		cfg.Placer = HeuristicPlacer{}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 10 * time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter + 2
	}
	return &Cluster{
		cfg:        cfg,
		clock:      cfg.Clock,
		hostByName: map[string]*Host{},
		placements: map[string]*Placement{},
		tenants:    map[string]*Quota{},
	}
}

// AddHost registers a host. Host order is placement order for
// first-fit and tie-breaks, so callers add hosts deterministically.
func (c *Cluster) AddHost(h *Host) {
	if h.placed == nil {
		h.placed = map[string]bool{}
	}
	c.hosts = append(c.hosts, h)
	c.hostByName[h.Spec.Name] = h
}

// Host returns a host by name, or nil.
func (c *Cluster) Host(name string) *Host { return c.hostByName[name] }

// Hosts returns the hosts in registration order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Stats snapshots the counters.
func (c *Cluster) Stats() Stats { return c.stats }

// Placement returns the book entry for a chain, or nil.
func (c *Cluster) Placement(id string) *Placement { return c.placements[id] }

// Book returns chain→host for every placed chain.
func (c *Cluster) Book() map[string]string {
	out := map[string]string{}
	for id, p := range c.placements {
		if p.State == StatePlaced {
			out[id] = p.Host
		}
	}
	return out
}

// DeadBy returns the worst-case detection deadline for a host that
// stops beating now: the remaining ladder plus one beat of phase slack.
func (c *Cluster) DeadBy() time.Duration {
	return time.Duration(c.cfg.DeadAfter+1) * c.cfg.HeartbeatEvery
}

// quotaFor resolves a tenant's quota.
func (c *Cluster) quotaFor(tenant string) Quota {
	if q, ok := c.cfg.Quotas[tenant]; ok {
		return q
	}
	return c.cfg.DefaultQuota
}

// admit enforces the tenant quota. Rejection never touches placed
// chains: admission control degrades new demand, not existing service.
func (c *Cluster) admit(r ChainRequest) error {
	q := c.quotaFor(r.Tenant)
	u := c.tenants[r.Tenant]
	if u == nil {
		u = &Quota{}
		c.tenants[r.Tenant] = u
	}
	if q.MaxChains > 0 && u.MaxChains+1 > q.MaxChains {
		return fmt.Errorf("%w: %s at %d chains", ErrQuotaExceeded, r.Tenant, u.MaxChains)
	}
	if q.MaxCPUMilli > 0 && u.MaxCPUMilli+r.CPUMilli > q.MaxCPUMilli {
		return fmt.Errorf("%w: %s cpu %d+%d over %d", ErrQuotaExceeded, r.Tenant, u.MaxCPUMilli, r.CPUMilli, q.MaxCPUMilli)
	}
	if q.MaxMemBytes > 0 && u.MaxMemBytes+r.MemBytes > q.MaxMemBytes {
		return fmt.Errorf("%w: %s mem %d+%d over %d", ErrQuotaExceeded, r.Tenant, u.MaxMemBytes, r.MemBytes, q.MaxMemBytes)
	}
	return nil
}

func (c *Cluster) chargeTenant(r ChainRequest, sign int64) {
	u := c.tenants[r.Tenant]
	if u == nil {
		u = &Quota{}
		c.tenants[r.Tenant] = u
	}
	u.MaxChains += int(sign)
	u.MaxCPUMilli += sign * r.CPUMilli
	u.MaxMemBytes += sign * r.MemBytes
}

// pickHost runs the placer over the live fleet.
func (c *Cluster) pickHost(r ChainRequest) (*Host, int64, bool, bool) {
	views := make([]*HostView, len(c.hosts))
	for i, h := range c.hosts {
		views[i] = &HostView{Spec: h.Spec, UsedCPU: h.usedCPU, UsedMem: h.usedMem,
			Alive: h.health == HostAlive && !h.down}
	}
	used := map[string]bool{}
	if r.AntiAffinityKey != "" {
		for _, p := range c.placements {
			if p.State == StatePlaced && p.Req.AntiAffinityKey == r.AntiAffinityKey {
				if h := c.hostByName[p.Host]; h != nil {
					used[h.Spec.FailureDomain] = true
				}
			}
		}
	}
	ctx := &PlaceContext{Hosts: views, UsedDomains: used}
	_, spilled := ctx.Feasible(r)
	i, ok := c.cfg.Placer.Place(r, ctx)
	if !ok {
		return nil, 0, false, false
	}
	h := c.hosts[i]
	return h, PlacementCost(h.Spec, r), spilled, true
}

// install books a chain on a host (capacity, tenant, stats).
func (c *Cluster) install(p *Placement, h *Host, cost int64, spilled bool) {
	p.Host = h.Spec.Name
	p.State = StatePlaced
	p.CostMicro = cost
	h.usedCPU += p.Req.CPUMilli
	h.usedMem += p.Req.MemBytes
	h.placed[p.Req.ID] = true
	c.stats.TotalCostMicro += cost
	if spilled {
		c.stats.Spills++
	}
}

// release un-books a chain from its host.
func (c *Cluster) release(p *Placement) {
	if h := c.hostByName[p.Host]; h != nil && h.placed[p.Req.ID] {
		h.usedCPU -= p.Req.CPUMilli
		h.usedMem -= p.Req.MemBytes
		delete(h.placed, p.Req.ID)
	}
	p.Host = ""
}

// Submit admits, places and (when dev is non-nil) deploys one chain.
// On success the returned session is live on the placed host. Rejected
// requests never displace placed chains.
func (c *Cluster) Submit(r ChainRequest, dev *core.Device) (*core.Session, error) {
	c.stats.Submitted++
	if _, dup := c.placements[r.ID]; dup {
		return nil, fmt.Errorf("orchestrator: chain %q already submitted", r.ID)
	}
	if err := c.admit(r); err != nil {
		c.stats.RejectedQuota++
		return nil, err
	}
	h, cost, spilled, ok := c.pickHost(r)
	if !ok || h.down {
		c.stats.RejectedCapacity++
		return nil, ErrNoCapacity
	}
	p := &Placement{Req: r, Dev: dev}
	if dev != nil {
		sess, err := core.Connect(dev, []*core.AccessNetwork{h.Net})
		if err != nil || sess.Mode != core.ModeInNetwork {
			reason := "fell back off-network"
			if err != nil {
				reason = err.Error()
			}
			return nil, fmt.Errorf("%w: %s on %s: %s", ErrDeployFailed, r.ID, h.Spec.Name, reason)
		}
		p.Sess = sess
	}
	c.placements[r.ID] = p
	c.chargeTenant(r, 1)
	c.install(p, h, cost, spilled)
	c.stats.Placed++
	return p.Sess, nil
}

// Start begins the heartbeat monitors. Each host beats every
// HeartbeatEvery with a stable per-host phase offset (FNV of the name)
// so a large fleet's probes don't all land on the same tick.
func (c *Cluster) Start() {
	for _, h := range c.hosts {
		host := h
		phase := time.Duration(fnv64(host.Spec.Name) % uint64(c.cfg.HeartbeatEvery))
		c.clock.Schedule(phase, func() { c.beat(host) })
	}
}

// Stop halts the monitors at their next firing.
func (c *Cluster) Stop() { c.stopped = true }

// beat is one liveness probe against one host.
func (c *Cluster) beat(h *Host) {
	if c.stopped {
		return
	}
	c.stats.Heartbeats++
	if !h.down {
		h.missed = 0
		h.lastBeat = c.clock.Now()
		h.health = HostAlive
	} else {
		h.missed++
		switch {
		case h.missed >= c.cfg.DeadAfter && h.health != HostDead:
			h.health = HostDead
			c.evacuate(h)
		case h.missed >= c.cfg.SuspectAfter && h.health == HostAlive:
			h.health = HostSuspect
		}
	}
	c.clock.Schedule(c.cfg.HeartbeatEvery, func() { c.beat(h) })
}

// KillHost crashes a host: heartbeats stop answering, the deployserver
// process restarts empty, and leaked switch/runtime state is mopped.
// It returns the usage each resident device forfeits (bytes metered
// but never invoiced) — callers keeping exact billing account these at
// kill time, mirroring the scenario engine's crash path.
func (c *Cluster) KillHost(name string) map[string]int64 {
	h := c.hostByName[name]
	if h == nil || h.down {
		return nil
	}
	h.down = true
	forfeited := map[string]int64{}
	for _, id := range h.Net.Server.DeviceIDs() {
		if _, b, ok := h.Net.Server.Usage(id); ok {
			forfeited[id] = b
		}
	}
	h.Net.Server.Restart()
	h.Net.Server.ReclaimOrphans()
	return forfeited
}

// RestoreHost brings a crashed host back; the next beat returns it to
// the alive pool (empty — its deployments evacuated or were lost).
func (c *Cluster) RestoreHost(name string) {
	if h := c.hostByName[name]; h != nil {
		h.down = false
	}
}

// evacuate moves every chain booked on a dead host to surviving
// capacity via make-before-break roaming. When nothing fits, the
// cluster browns out: lowest-priority non-security chains shed first;
// a security chain that still cannot fit is parked fail-closed —
// blocked, never served unprotected.
func (c *Cluster) evacuate(h *Host) {
	ids := make([]string, 0, len(h.placed))
	for id := range h.placed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := c.placements[id]
		c.release(p)
		target, cost, spilled, ok := c.pickHost(p.Req)
		for !ok {
			victim := c.shedCandidate(p.Req)
			if victim == nil {
				break
			}
			c.shed(victim)
			target, cost, spilled, ok = c.pickHost(p.Req)
		}
		if !ok {
			c.park(p)
			continue
		}
		if p.Sess != nil {
			ho, err := core.BeginRoam(p.Sess, []*core.AccessNetwork{target.Net},
				core.RoamOptions{DrainDeadline: c.cfg.DrainDeadline})
			if err != nil {
				c.stats.EvacFailed++
				c.park(p)
				continue
			}
			// The old deployment died with the host: Complete's teardown
			// error is expected and its usage was forfeited at kill time.
			// A surviving old server (graceful drain) yields an invoice.
			if inv, err := ho.Complete(); err == nil && inv != nil && c.cfg.OnInvoice != nil {
				c.cfg.OnInvoice(id, inv)
			}
			p.Sess = ho.New
		}
		c.install(p, target, cost, spilled)
		c.stats.Evacuated++
	}
}

// park blocks a chain that no surviving host can take. Security chains
// park fail-closed (counted separately — they are never shed to
// fail-open); best-effort chains are shed.
func (c *Cluster) park(p *Placement) {
	c.chargeTenant(p.Req, -1)
	p.Sess = nil
	if p.Req.Security {
		p.State = StateParked
		c.stats.SecurityParked++
	} else {
		p.State = StateShed
		c.stats.Shed++
	}
}

// shedCandidate picks the next brownout victim for a displaced chain:
// the lowest-priority placed non-security chain strictly below the
// incomer's priority, ties broken by ID. Security chains are never
// candidates.
func (c *Cluster) shedCandidate(incoming ChainRequest) *Placement {
	var best *Placement
	for _, p := range c.placements {
		if p.State != StatePlaced || p.Req.Security || p.Req.Priority >= incoming.Priority {
			continue
		}
		if best == nil || p.Req.Priority < best.Req.Priority ||
			(p.Req.Priority == best.Req.Priority && p.Req.ID < best.Req.ID) {
			best = p
		}
	}
	return best
}

// shed browns out one placed chain: its session is torn down (final
// invoice collected), its capacity freed.
func (c *Cluster) shed(p *Placement) {
	if p.Sess != nil {
		if inv, err := p.Sess.Teardown(); err == nil && inv != nil && c.cfg.OnInvoice != nil {
			c.cfg.OnInvoice(p.Req.ID, inv)
		}
		p.Sess = nil
	}
	c.release(p)
	c.chargeTenant(p.Req, -1)
	p.State = StateShed
	c.stats.Shed++
}

// RetryParked re-admits parked security chains (sorted by ID) after
// capacity returns. Each gets a fresh deployment — the old one died
// with its host.
func (c *Cluster) RetryParked() int {
	var ids []string
	for id, p := range c.placements {
		if p.State == StateParked {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	n := 0
	for _, id := range ids {
		p := c.placements[id]
		if err := c.admit(p.Req); err != nil {
			continue
		}
		h, cost, spilled, ok := c.pickHost(p.Req)
		if !ok || h.down {
			continue
		}
		if p.Dev != nil {
			sess, err := core.Connect(p.Dev, []*core.AccessNetwork{h.Net})
			if err != nil || sess.Mode != core.ModeInNetwork {
				continue
			}
			p.Sess = sess
		}
		c.chargeTenant(p.Req, 1)
		c.install(p, h, cost, spilled)
		c.stats.Reparked++
		n++
	}
	return n
}

// TeardownAll retires every placed chain cleanly, collecting final
// invoices, in chain-ID order — the quiesce path.
func (c *Cluster) TeardownAll() {
	ids := make([]string, 0, len(c.placements))
	for id, p := range c.placements {
		if p.State == StatePlaced {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := c.placements[id]
		if p.Sess != nil {
			if inv, err := p.Sess.Teardown(); err == nil && inv != nil && c.cfg.OnInvoice != nil {
				c.cfg.OnInvoice(id, inv)
			}
			p.Sess = nil
		}
		c.release(p)
		c.chargeTenant(p.Req, -1)
		p.State = StateRetired
	}
}

// BookViolations reconciles the placement book against actual host
// state in both directions — the orchestrator-level invariant the
// scenario checker folds in (ROADMAP item 3 follow-up). A clean
// cluster returns nil at any quiet point: every placed chain's
// deployment exists on its booked host with the matching cookie, every
// deployment on a live host is booked, and per-host capacity equals
// the sum of booked requests. Hosts that are down but not yet detected
// dead are skipped (their evacuation is still in flight).
func (c *Cluster) BookViolations() []string {
	var out []string
	ids := make([]string, 0, len(c.placements))
	for id := range c.placements {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	type cap struct{ cpu, mem int64 }
	want := map[string]*cap{}
	booked := map[string]map[string]string{} // host -> deviceID -> chainID
	for _, id := range ids {
		p := c.placements[id]
		if p.State != StatePlaced {
			if p.State == StateParked && p.Sess != nil {
				out = append(out, fmt.Sprintf("parked chain %s still has a live session (fail-open)", id))
			}
			continue
		}
		h := c.hostByName[p.Host]
		if h == nil {
			out = append(out, fmt.Sprintf("chain %s booked on unknown host %q", id, p.Host))
			continue
		}
		if !h.placed[id] {
			out = append(out, fmt.Sprintf("chain %s booked on %s but absent from the host's placed set", id, p.Host))
		}
		w := want[p.Host]
		if w == nil {
			w = &cap{}
			want[p.Host] = w
		}
		w.cpu += p.Req.CPUMilli
		w.mem += p.Req.MemBytes
		if h.health == HostDead {
			out = append(out, fmt.Sprintf("chain %s booked on dead host %s", id, p.Host))
			continue
		}
		if h.down {
			continue // crash not yet detected; evacuation in flight
		}
		if p.Dev != nil {
			dep := h.Net.Server.Deployment(p.Dev.ID)
			switch {
			case dep == nil:
				out = append(out, fmt.Sprintf("chain %s booked on %s but host has no deployment for %s", id, p.Host, p.Dev.ID))
			case p.Sess != nil && dep.Cookie != p.Sess.Cookie:
				out = append(out, fmt.Sprintf("chain %s on %s: booked cookie %d, host runs %d", id, p.Host, p.Sess.Cookie, dep.Cookie))
			}
			if booked[p.Host] == nil {
				booked[p.Host] = map[string]string{}
			}
			booked[p.Host][p.Dev.ID] = id
		}
	}
	for _, h := range c.hosts {
		w := want[h.Spec.Name]
		if w == nil {
			w = &cap{}
		}
		if h.usedCPU != w.cpu || h.usedMem != w.mem {
			out = append(out, fmt.Sprintf("host %s capacity book (%d cpu, %d mem) != placed sum (%d, %d)",
				h.Spec.Name, h.usedCPU, h.usedMem, w.cpu, w.mem))
		}
		if h.down || h.health == HostDead {
			continue
		}
		for _, devID := range h.Net.Server.DeviceIDs() {
			if booked[h.Spec.Name][devID] == "" {
				out = append(out, fmt.Sprintf("host %s runs a deployment for %s no booked chain owns", h.Spec.Name, devID))
			}
		}
	}
	return out
}

// fnv64 is FNV-1a, the same stable hash the deployserver uses for
// lease jitter — per-host heartbeat phases must not consume an RNG
// stream (adding a host would shift every later draw).
func fnv64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
