// Package middlebox implements the PVN software-middlebox runtime: a
// registry of middlebox types, per-user sandboxed instances with memory
// and boot-time accounting, and named chains that a switch can send
// packets through.
//
// The cost model follows the numbers the paper cites for lightweight NFV
// (§3.3, ClickOS): instances boot in tens of milliseconds, add tens of
// microseconds of per-packet latency, and consume a few megabytes each.
// Experiment E1 measures exactly these three quantities.
//
// Isolation (§3.3 "avoiding harm"): every instance belongs to one owner,
// chains execute only over that owner's instances, and a chain configured
// with an owner address refuses packets that neither originate from nor
// target that address.
package middlebox

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/health"
	"pvn/internal/packet"
)

// Common runtime errors.
var (
	ErrUnknownType     = errors.New("middlebox: unknown middlebox type")
	ErrMemoryExceeded  = errors.New("middlebox: host memory budget exceeded")
	ErrUnknownChain    = errors.New("middlebox: unknown chain")
	ErrNotBooted       = errors.New("middlebox: instance not booted yet")
	ErrIsolation       = errors.New("middlebox: packet outside owner's traffic")
	ErrCrossUser       = errors.New("middlebox: chain references another user's instance")
	ErrDuplicateChain  = errors.New("middlebox: chain already exists")
	ErrDropped         = errors.New("middlebox: packet dropped by policy")
	ErrInstanceunknown = errors.New("middlebox: unknown instance")
	// ErrBoxPanic wraps a panic contained by the supervisor.
	ErrBoxPanic = errors.New("middlebox: box panicked")
	// ErrBoxBroken marks a packet dropped because a fail-closed
	// instance's circuit breaker is open (or it is still rebooting).
	ErrBoxBroken = errors.New("middlebox: instance broken (circuit open)")
)

// Verdict is a middlebox's decision about one packet.
type Verdict uint8

// Verdicts.
const (
	// VerdictPass forwards the (possibly modified) packet.
	VerdictPass Verdict = iota
	// VerdictDrop discards the packet.
	VerdictDrop
)

// Context gives a middlebox controlled access to its environment.
//
// Concurrency: a Context is per-packet scratch state, created by the
// runtime once per chain invocation and re-pointed at each hop's
// instance; it is used from exactly one goroutine, under the owner's
// lock, and must not be retained across Process calls.
type Context struct {
	// Owner is the user the instance belongs to.
	Owner string
	// Now is the simulated time of this packet.
	Now time.Duration

	runtime  *Runtime
	instance *Instance
	// pkt is the decode of pktData, kept for the chain invocation (see
	// Packet).
	pkt     *packet.Packet
	pktData []byte
}

// Packet returns data decoded as an IPv4 packet. The decode is done once
// per chain invocation and shared by the isolation check and every hop
// that is handed the same bytes; a hop that passes on different bytes (a
// rewriting box) makes the next caller decode those instead, so the
// result always describes exactly the slice passed in. The packet is a
// read-only view: a box must not modify it, its layers or data.
func (c *Context) Packet(data []byte) *packet.Packet {
	if c.pkt == nil || !sameSlice(c.pktData, data) {
		c.pkt, c.pktData = packet.Decode(data, packet.LayerTypeIPv4), data
	}
	return c.pkt
}

// sameSlice reports whether a and b are the same bytes in memory.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Alert records a security/privacy finding (blocked MITM, PII leak, …).
// Alerts are the observable output of detection middleboxes. The
// runtime retains at most AlertCap recent alerts (a ring buffer): under
// sustained traffic the oldest are evicted and counted, never an
// unbounded heap.
func (c *Context) Alert(kind, detail string) {
	c.runtime.pushAlert(Alert{
		Owner: c.Owner, Instance: c.instance.ID, Kind: kind, Detail: detail, At: c.Now,
	})
	c.instance.Alerts++
}

// Alert is one recorded finding.
type Alert struct {
	Owner    string
	Instance string
	Kind     string
	Detail   string
	At       time.Duration
}

// Box is the middlebox implementation interface. Implementations must be
// deterministic and must not retain data across calls except through
// their own fields (their sandboxed state). Process calls on all of one
// owner's boxes are serialized; boxes of different owners run
// concurrently, so anything a box shares beyond its owner (a resolver
// set, a package variable) needs its own synchronization.
type Box interface {
	// Name identifies the middlebox type.
	Name() string
	// Process inspects/transforms one raw IPv4 packet. Returning
	// VerdictDrop discards it; out is ignored then. Returning modified
	// bytes with VerdictPass rewrites the packet: data itself and
	// ctx.Packet(data) are shared with the other hops and read-only, so
	// a rewrite is a new slice.
	Process(ctx *Context, data []byte) (out []byte, v Verdict, err error)
}

// Spec describes a registered middlebox type and its resource model.
type Spec struct {
	// Type is the registry key, e.g. "tls-verify".
	Type string
	// New builds an instance from a configuration map.
	New func(cfg map[string]string) (Box, error)
	// MemoryBytes is the per-instance footprint. Zero defaults to 6 MB,
	// the paper's cited figure.
	MemoryBytes int
	// BootDelay is instantiation latency. Zero defaults to 30 ms.
	BootDelay time.Duration
	// PerPacketDelay is processing cost per packet. Zero defaults to
	// 45 µs.
	PerPacketDelay time.Duration
	// FailPolicy is the type's default behavior when an instance is
	// broken or faults on a packet; instances can override it with
	// cfg["fail"] = "open"|"closed". PolicyDefault resolves through
	// SupervisorConfig.DefaultPolicy to FailClosed.
	FailPolicy FailPolicy
	// Security marks detection/enforcement boxes (tls-verify,
	// pii-detect, …): a fail-open bypass of one is a policy violation
	// the auditor must see, not a harmless optimization loss.
	Security bool
}

// Paper-cited defaults (§3.3, [24] ClickOS).
const (
	DefaultMemoryBytes    = 6 << 20
	DefaultBootDelay      = 30 * time.Millisecond
	DefaultPerPacketDelay = 45 * time.Microsecond
)

func (s *Spec) memory() int {
	if s.MemoryBytes == 0 {
		return DefaultMemoryBytes
	}
	return s.MemoryBytes
}

func (s *Spec) boot() time.Duration {
	if s.BootDelay == 0 {
		return DefaultBootDelay
	}
	return s.BootDelay
}

func (s *Spec) perPacket() time.Duration {
	if s.PerPacketDelay == 0 {
		return DefaultPerPacketDelay
	}
	return s.PerPacketDelay
}

// Instance is one booted middlebox owned by a user.
type Instance struct {
	ID    string
	Owner string
	Spec  *Spec
	Box   Box
	// ReadyAt is when boot completes; packets before that fail with
	// ErrNotBooted (first boot) or follow the failure policy (reboots).
	ReadyAt time.Duration
	// Policy is the resolved failure policy (config > spec > runtime
	// default > FailClosed), fixed at Instantiate.
	Policy FailPolicy

	// Counters.
	Packets, Drops, Errors, Alerts int64
	// Panics counts contained Process panics; Restarts counts
	// supervisor reboots; Bypasses counts packets that crossed this
	// box unprocessed (fail-open); Unavailable counts packets dropped
	// by fail-closed unavailability.
	Panics, Restarts, Bypasses, Unavailable int64
	Bytes                                   int64
	// CPUTime accumulates modelled processing time, the billing input.
	CPUTime time.Duration

	// cfg is retained for supervisor restarts via Spec.New.
	cfg map[string]string
	// ladder is the supervisor's health state; restartAt is when a
	// health.Down instance is next rebuilt.
	ladder    health.Ladder
	restartAt time.Duration
}

// Chain is an ordered middlebox pipeline plus its isolation scope.
type Chain struct {
	Name  string
	Owner string
	Boxes []*Instance
	// OwnerAddrs, when non-empty, restricts the chain to packets whose
	// source or destination is one of these addresses.
	OwnerAddrs []packet.IPv4Address

	// residueClosed is set when Terminate removes a fail-closed box
	// from this chain: if the chain ends up empty it drops traffic
	// instead of silently passing everything the removed box would
	// have filtered.
	residueClosed bool
	// lock is the owner's execution lock (Runtime.owners[Owner]).
	lock *ownerLock
}

// FailClosedResidue reports whether a terminated fail-closed box has
// left its mark on this chain (an emptied chain then drops traffic).
func (c *Chain) FailClosedResidue() bool { return c.residueClosed }

// DefaultAlertCap bounds the runtime's alert ring when AlertCap is 0.
const DefaultAlertCap = 4096

// ownerLock serializes chain execution over one owner's instances.
type ownerLock struct {
	mu sync.Mutex
	// refs counts the owner's instances and chains; the entry leaves
	// Runtime.owners with the last one. Guarded by Runtime.mu.
	refs int
}

// Runtime hosts instances and chains on one middlebox server.
//
// Concurrency: the Runtime locks itself, and chains of different owners
// execute in parallel. Chain execution holds mu shared plus the chain
// owner's lock; an instance belongs to one owner and a chain runs only
// over its owner's instances (ErrCrossUser), so everything execution
// writes — box state, instance counters, health ladders, supervisor
// restarts — is serialized per owner, and two owners share nothing but
// the atomic supervision counters and the alert ring. Every
// control-plane method (Register, Instantiate, Terminate, TeardownUser,
// BuildChainIn, RemoveChain, ExportState, ImportState and the getters)
// holds mu exclusively, so it sees no chain mid-packet and dataplane
// workers may execute chains while a deployment server attaches and
// detaches subscribers. The alert ring and OnEvent delivery sit under a
// leaf mutex of their own. Lock order: a caller's own lock
// (deployserver's Server.mu) → mu → owner lock → evMu.
//
// Code the runtime calls under these locks — Box.Process, Spec.New,
// OnEvent — must not call back into it (Context.Alert and
// Context.Packet are the sanctioned ways in). Now and Spec.New are
// called from concurrent executions and must be goroutine-safe.
// Counters and health read off a returned *Instance are stable only
// while no chain of its owner is executing.
type Runtime struct {
	// Now supplies simulated time.
	Now func() time.Duration
	// MemoryCapBytes bounds total instance memory. Zero means 1 GiB.
	MemoryCapBytes int
	// AlertCap bounds the retained alert ring. Zero means
	// DefaultAlertCap; the oldest alerts are evicted (and counted in
	// AlertsDropped) once the ring is full.
	AlertCap int
	// Supervisor tunes panic isolation, circuit breaking and restart.
	// The zero value is live (see SupervisorConfig).
	Supervisor SupervisorConfig
	// OnEvent, when set, receives every supervision event (panics,
	// breaker transitions, restarts, bypasses). Called inline from
	// chain execution — keep it cheap and non-blocking. Calls are
	// serialized across all owners (under evMu), so a hook may keep
	// plain state; one owner's events arrive in the order they happened.
	OnEvent func(SupEvent)

	// mu guards the registry, the instance, chain and owner maps and the
	// memory account: held shared by chain execution, exclusively by the
	// control plane.
	mu        sync.RWMutex
	registry  map[string]*Spec
	instances map[string]*Instance
	chains    map[string]*Chain
	owners    map[string]*ownerLock
	memUsed   int
	nextID    int

	// evMu guards the alert ring and serializes OnEvent. It is a leaf:
	// nothing else is acquired under it.
	evMu sync.Mutex
	// alerts is a ring: once len == alertCap(), alertHead is the
	// oldest element and new alerts overwrite it.
	alerts        []Alert
	alertHead     int
	alertsDropped atomic.Int64

	sup supCounters
}

// NewRuntime builds an empty runtime. now may be nil (time zero).
func NewRuntime(now func() time.Duration) *Runtime {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Runtime{
		Now:       now,
		registry:  make(map[string]*Spec),
		instances: make(map[string]*Instance),
		chains:    make(map[string]*Chain),
		owners:    make(map[string]*ownerLock),
	}
}

// retain adds one reference (an instance or a chain) to owner's lock,
// creating it on first use. The caller holds mu exclusively.
func (r *Runtime) retain(owner string) *ownerLock {
	l := r.owners[owner]
	if l == nil {
		l = &ownerLock{}
		r.owners[owner] = l
	}
	l.refs++
	return l
}

// release drops one reference; the owner's lock goes with its last
// instance or chain, so owner churn cannot grow the runtime. The caller
// holds mu exclusively.
func (r *Runtime) release(owner string) {
	if l := r.owners[owner]; l != nil {
		if l.refs--; l.refs == 0 {
			delete(r.owners, owner)
		}
	}
}

// Register adds a middlebox type to the registry. Registering the same
// type twice replaces the spec (latest wins), which is how the PVN store
// ships updates.
func (r *Runtime) Register(s *Spec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registry[s.Type] = s
}

// Types returns the registered type names.
func (r *Runtime) Types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.registry))
	for k := range r.registry {
		out = append(out, k)
	}
	return out
}

func (r *Runtime) memCap() int {
	if r.MemoryCapBytes == 0 {
		return 1 << 30
	}
	return r.MemoryCapBytes
}

// MemoryUsed reports committed instance memory.
func (r *Runtime) MemoryUsed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memUsed
}

// Instantiate boots an instance of the named type for owner. The instance
// becomes usable BootDelay after the call (simulated time); the returned
// Instance reports that in ReadyAt.
func (r *Runtime) Instantiate(owner, typ string, cfg map[string]string) (*Instance, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec, ok := r.registry[typ]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, typ)
	}
	if r.memUsed+spec.memory() > r.memCap() {
		return nil, fmt.Errorf("%w: need %d, %d of %d in use", ErrMemoryExceeded, spec.memory(), r.memUsed, r.memCap())
	}
	pol, err := ParseFailPolicy(cfg["fail"])
	if err != nil {
		return nil, err
	}
	if pol == PolicyDefault {
		pol = spec.FailPolicy
	}
	if pol == PolicyDefault {
		pol = r.Supervisor.DefaultPolicy
	}
	if pol == PolicyDefault {
		pol = FailClosed
	}
	box, err := spec.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("middlebox: instantiate %q: %w", typ, err)
	}
	r.nextID++
	inst := &Instance{
		ID:      fmt.Sprintf("%s-%d", typ, r.nextID),
		Owner:   owner,
		Spec:    spec,
		Box:     box,
		ReadyAt: r.Now() + spec.boot(),
		Policy:  pol,
		cfg:     cfg,
	}
	r.instances[inst.ID] = inst
	r.memUsed += spec.memory()
	r.retain(owner)
	return inst, nil
}

// Terminate destroys an instance and releases its memory.
func (r *Runtime) Terminate(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.instances[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrInstanceunknown, id)
	}
	delete(r.instances, id)
	r.memUsed -= inst.Spec.memory()
	r.release(inst.Owner)
	// Remove it from any chains that reference it. A chain that loses
	// a fail-closed box remembers that: if it is ever emptied this
	// way it drops traffic rather than passing everything the removed
	// box was there to filter.
	for _, c := range r.chains {
		kept := c.Boxes[:0]
		removed := false
		for _, b := range c.Boxes {
			if b.ID != id {
				kept = append(kept, b)
			} else {
				removed = true
			}
		}
		c.Boxes = kept
		if removed && inst.Policy == FailClosed {
			c.residueClosed = true
		}
	}
	return nil
}

// TeardownUser destroys every instance and chain belonging to owner and
// returns how many instances were released. Used on PVN teardown.
func (r *Runtime) TeardownUser(owner string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id, inst := range r.instances {
		if inst.Owner == owner {
			delete(r.instances, id)
			r.memUsed -= inst.Spec.memory()
			n++
		}
	}
	for name, c := range r.chains {
		if c.Owner == owner {
			delete(r.chains, name)
		}
	}
	delete(r.owners, owner)
	return n
}

// Instance returns the instance by ID, or nil.
func (r *Runtime) Instance(id string) *Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.instances[id]
}

// InstanceIDs returns the IDs of every hosted instance, in no particular
// order. Deployment-server crash recovery diffs this against its book to
// find orphans.
func (r *Runtime) InstanceIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.instances))
	for id := range r.instances {
		out = append(out, id)
	}
	return out
}

// ChainKeys returns every chain's "namespace/name" key, in no particular
// order — the counterpart of InstanceIDs for crash recovery.
func (r *Runtime) ChainKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.chains))
	for key := range r.chains {
		out = append(out, key)
	}
	return out
}

// InstancesOf returns all instances owned by owner.
func (r *Runtime) InstancesOf(owner string) []*Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Instance
	for _, inst := range r.instances {
		if inst.Owner == owner {
			out = append(out, inst)
		}
	}
	return out
}

// BuildChain creates a named chain from instance IDs, all of which must
// exist and belong to owner (the cross-user check the paper's isolation
// story requires). ownerAddrs optionally pins the chain to the owner's
// traffic. The chain is addressed as "<owner>/<name>".
func (r *Runtime) BuildChain(owner, name string, instanceIDs []string, ownerAddrs []packet.IPv4Address) (*Chain, error) {
	return r.BuildChainIn(owner, owner, name, instanceIDs, ownerAddrs)
}

// BuildChainIn is BuildChain with an explicit namespace: the chain is
// addressed as "<namespace>/<name>" while ownership checks still bind to
// owner. Deployments of the same user's PVNC from multiple devices use
// per-deployment namespaces so their chains coexist.
func (r *Runtime) BuildChainIn(owner, namespace, name string, instanceIDs []string, ownerAddrs []packet.IPv4Address) (*Chain, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := chainKey(namespace, name)
	if _, dup := r.chains[key]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateChain, key)
	}
	c := &Chain{Name: name, Owner: owner, OwnerAddrs: ownerAddrs}
	for _, id := range instanceIDs {
		inst, ok := r.instances[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrInstanceunknown, id)
		}
		if inst.Owner != owner {
			return nil, fmt.Errorf("%w: %q belongs to %q", ErrCrossUser, id, inst.Owner)
		}
		c.Boxes = append(c.Boxes, inst)
	}
	c.lock = r.retain(owner)
	r.chains[key] = c
	return c, nil
}

// RemoveChain deletes a chain by its namespace and name (instances
// survive).
func (r *Runtime) RemoveChain(namespace, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := chainKey(namespace, name)
	if c, ok := r.chains[key]; ok {
		delete(r.chains, key)
		r.release(c.Owner)
	}
}

// Chain returns a chain by namespace and name, or nil.
func (r *Runtime) Chain(namespace, name string) *Chain {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chains[chainKey(namespace, name)]
}

func chainKey(owner, name string) string { return owner + "/" + name }

// ExecuteChain implements openflow.ChainExecutor: the chain name on flow
// rules is "owner/chain".
func (r *Runtime) ExecuteChain(chain string, data []byte) ([]byte, time.Duration, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.chains[chain]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownChain, chain)
	}
	c.lock.mu.Lock()
	defer c.lock.mu.Unlock()
	return r.run(c, data) //lint:allow lockorder mu is held shared and the owner lock serializes only this owner's boxes (order: Server.mu → Runtime.mu shared → owner lock → evMu leaf); Process cannot re-enter the runtime
}

// run executes one packet through c. The caller holds r.mu shared and
// c's owner lock.
func (r *Runtime) run(c *Chain, data []byte) ([]byte, time.Duration, error) {
	now := r.Now()
	var delay time.Duration

	// One Context per chain invocation, re-pointed per hop: the hot
	// path allocates once, not once per box, and decodes once.
	ctx := Context{Owner: c.Owner, runtime: r}
	if len(c.OwnerAddrs) > 0 && !packetBelongsTo(c, ctx.Packet(data)) {
		return nil, 0, fmt.Errorf("%w: chain %s/%s", ErrIsolation, c.Owner, c.Name)
	}
	if len(c.Boxes) == 0 && c.residueClosed {
		return nil, 0, fmt.Errorf("%w: chain %s/%s emptied of fail-closed boxes", ErrDropped, c.Owner, c.Name)
	}

	cur := data
	for _, inst := range c.Boxes {
		at := now + delay
		if inst.ladder.State() == health.Down {
			r.maybeRestart(inst, at)
		}
		if inst.ladder.State() == health.Down || (at < inst.ReadyAt && inst.Restarts > 0) {
			// Unavailable (breaker open, or rebooting after a
			// restart): the failure policy decides, without running
			// user code.
			if inst.Policy == FailOpen {
				r.noteBypass(inst, at, "unavailable")
				continue
			}
			inst.Unavailable++
			r.sup.brokenDrops.Add(1)
			r.instEvent(EventBrokenDrop, inst, at, "fail-closed while broken")
			return nil, delay, fmt.Errorf("middlebox %s: %w", inst.ID, ErrBoxBroken)
		}
		if at < inst.ReadyAt {
			return nil, delay, fmt.Errorf("%w: %s ready at %v, now %v", ErrNotBooted, inst.ID, inst.ReadyAt, at)
		}
		ctx.Now = at
		ctx.instance = inst
		out, v, err, panicked := callBox(&ctx, inst.Box, cur)
		inst.Packets++
		inst.Bytes += int64(len(cur))
		pp := inst.Spec.perPacket()
		inst.CPUTime += pp
		delay += pp
		if err != nil {
			inst.Errors++
			if panicked {
				inst.Panics++
				r.sup.panics.Add(1)
				r.instEvent(EventPanic, inst, at, err.Error())
			} else {
				r.sup.boxErrors.Add(1)
				r.instEvent(EventBoxError, inst, at, err.Error())
			}
			r.recordFailure(inst, at)
			if inst.Policy == FailOpen {
				// The box's work is lost but the packet survives:
				// continue unmodified past the faulty hop.
				r.noteBypass(inst, at, "fault")
				continue
			}
			return nil, delay, fmt.Errorf("middlebox %s: %w", inst.ID, err)
		}
		r.recordSuccess(inst, at)
		if v == VerdictDrop {
			inst.Drops++
			return nil, delay, nil
		}
		if out != nil {
			cur = out
		}
	}
	return cur, delay, nil
}

// packetBelongsTo is the isolation check: p must decode as IPv4 (which
// a bad header checksum prevents) and be from or to one of c's owner
// addresses.
func packetBelongsTo(c *Chain, p *packet.Packet) bool {
	ip := p.IPv4()
	if ip == nil {
		return false
	}
	for _, a := range c.OwnerAddrs {
		if ip.Src == a || ip.Dst == a {
			return true
		}
	}
	return false
}

func (r *Runtime) alertCap() int {
	if r.AlertCap <= 0 {
		return DefaultAlertCap
	}
	return r.AlertCap
}

// pushAlert appends to the bounded alert ring, evicting (and counting)
// the oldest alert once the ring is full. Its only caller is
// Context.Alert, inside a Process call.
func (r *Runtime) pushAlert(a Alert) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	max := r.alertCap()
	if len(r.alerts) < max {
		r.alerts = append(r.alerts, a)
		return
	}
	// Ring shrank? (AlertCap lowered between calls.) Drop the excess.
	for len(r.alerts) > max {
		r.alerts = append(r.alerts[:r.alertHead], r.alerts[r.alertHead+1:]...)
		if r.alertHead >= len(r.alerts) {
			r.alertHead = 0
		}
		r.alertsDropped.Add(1)
	}
	r.alerts[r.alertHead] = a
	r.alertHead = (r.alertHead + 1) % len(r.alerts)
	r.alertsDropped.Add(1)
}

// Alerts returns alerts recorded for owner (all owners when owner is
// ""), oldest first. Only the newest alertCap() alerts are retained;
// AlertsDropped counts the evicted remainder.
func (r *Runtime) Alerts(owner string) []Alert {
	// mu like every getter (no chain is mid-packet); evMu for the ring.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evMu.Lock()
	defer r.evMu.Unlock()
	var out []Alert
	n := len(r.alerts)
	for i := 0; i < n; i++ {
		a := r.alerts[(r.alertHead+i)%n]
		if owner == "" || a.Owner == owner {
			out = append(out, a)
		}
	}
	return out
}

// AlertsDropped reports how many alerts the bounded ring has evicted.
func (r *Runtime) AlertsDropped() int64 { return r.alertsDropped.Load() }
