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
	"slices"
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
	// ErrUnknownKey refuses an instance config key its type does not
	// declare.
	ErrUnknownKey = errors.New("middlebox: unknown config key")
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
// Concurrency: a Context is per-invocation scratch state, taken from a
// pool once per chain invocation, re-pointed at each hop's instance and
// returned to the pool when the chain finishes; it is used from exactly
// one goroutine, under the owner's lock. Neither the Context nor
// anything reached through it (ctx.Packet's packet, its layers, their
// header lists and record slices, ctx.HTTP's view) may outlive the
// Process call: the next packet reuses the storage. Race builds poison
// it after every invocation, so a box that keeps such a view reads
// garbage there.
type Context struct {
	// Owner is the user the instance belongs to.
	Owner string
	// Now is the simulated time of this packet.
	Now time.Duration

	runtime  *Runtime
	instance *Instance
	// entered is the packet the chain was entered with, the one slice
	// that decodes into dec and parses into view.
	entered []byte
	dec     packet.Decoder
	view    packet.HTTPView
	// hdrs is dec's decode of entered, headers only or full, once made.
	hdrs *packet.Packet
	// The second set of scratch serves the last other slice a hop asked
	// headers or an HTTP view of, in practice the bytes a rewriting box
	// returned: outHdrs is outDec's headers-only decode of outData, and
	// HTTP parses that slice into outView. Asking about yet another
	// slice reuses them.
	outDec  packet.Decoder
	outView packet.HTTPView
	outHdrs *packet.Packet
	outData []byte
	// pkt is the full decode of pktData, kept for the chain invocation
	// (see Packet).
	pkt     *packet.Packet
	pktData []byte
	// httpv is the HTTP view of httpData, or nil when httpData is not
	// HTTP; httpDone says whether httpData has been looked at (see HTTP).
	httpv    *packet.HTTPView
	httpData []byte
	httpDone bool
}

// ctxPool recycles Contexts and their decode storage across chain
// invocations: per P, never per owner, because a host keeps thousands
// of resident subscribers and runs a handful of chains at a time.
var ctxPool = sync.Pool{New: func() any { return new(Context) }}

// Packet returns data decoded as an IPv4 packet, every layer down to the
// application one. The decode is done once per chain invocation, the
// first time a hop asks, and shared by every hop that is handed the same
// bytes; a hop that passes on different bytes (a rewriting box) makes the
// next caller decode those instead, so the result always describes
// exactly the slice passed in. The packet is a read-only view: a box must
// not modify it, its layers or data, nor keep any of it past Process.
func (c *Context) Packet(data []byte) *packet.Packet {
	if c.pkt != nil && sameSlice(c.pktData, data) {
		return c.pkt
	}
	if sameSlice(c.entered, data) {
		c.pkt = c.dec.Decode(data, packet.LayerTypeIPv4)
		c.hdrs = c.pkt
	} else {
		c.pkt = packet.Decode(data, packet.LayerTypeIPv4)
	}
	c.pktData = data
	return c.pkt
}

// headers returns a decode of data down to at least its transport layer:
// for the entered packet the one in dec, made headers-only on first use;
// for a slice Packet has decoded, that decode; for any other, a
// headers-only decode into outDec.
func (c *Context) headers(data []byte) *packet.Packet {
	switch {
	case sameSlice(c.entered, data):
		if c.hdrs == nil {
			c.hdrs = c.dec.DecodeHeaders(data, packet.LayerTypeIPv4)
		}
		return c.hdrs
	case c.pkt != nil && sameSlice(c.pktData, data):
		return c.pkt
	case c.outHdrs == nil || !sameSlice(c.outData, data):
		c.outHdrs, c.outData = c.outDec.DecodeHeaders(data, packet.LayerTypeIPv4), data
	}
	return c.outHdrs
}

// HTTP returns the HTTP message data carries, parsed in place, or nil
// when data is not a TCP segment that Packet would decode as HTTP (the
// port decides, and the view refuses what the HTTP layer refuses). It
// is cached per invocation by the same same-slice rule as Packet, and
// costs no application-layer decode: a box that only reads HTTP asks for
// this and never for Packet. Every field aliases data, so it is
// read-only, and a box that keeps a field past Process copies it. The
// view of any slice but the entered packet, such as a rewriter's
// output, is reused when a hop asks about yet another slice.
func (c *Context) HTTP(data []byte) *packet.HTTPView {
	if c.httpDone && sameSlice(c.httpData, data) {
		return c.httpv
	}
	c.httpv, c.httpData, c.httpDone = nil, data, true
	tcp := c.headers(data).TCP()
	if tcp == nil || tcp.NextLayerType() != packet.LayerTypeHTTP {
		return nil
	}
	v := &c.view
	if !sameSlice(c.entered, data) {
		v = &c.outView
	}
	if v.Parse(tcp.LayerPayload()) == nil {
		c.httpv = v
	}
	return c.httpv
}

// release ends the chain invocation c served and returns it to ctxPool,
// dropping its references to the packet. Race builds poison the decode
// and view storage first, so a view retained past Process fails loudly.
func (c *Context) release() {
	if raceEnabled {
		c.dec.Poison()
		c.view.Poison()
		c.outDec.Poison()
		c.outView.Poison()
	}
	c.Owner, c.Now, c.runtime, c.instance = "", 0, nil, nil
	c.entered, c.hdrs, c.pkt, c.pktData = nil, nil, nil, nil
	c.outHdrs, c.outData = nil, nil
	c.httpv, c.httpData, c.httpDone = nil, nil, false
	ctxPool.Put(c)
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
// their own fields (their sandboxed state), and what they keep there must
// be their own: data, ctx.Packet(data), its layers, ctx.HTTP(data) and
// every slice reached through them (header lists, bodies, payloads) are
// reused for later packets once Process returns. Strings are safe to
// keep, slices must be copied. Process calls on all of one owner's boxes
// are serialized; boxes of different owners run concurrently, so
// anything a box shares beyond its owner (a resolver set, a package
// variable) needs its own synchronization.
type Box interface {
	// Name identifies the middlebox type.
	Name() string
	// Process inspects/transforms one raw IPv4 packet. Returning
	// VerdictDrop discards it; out is ignored then. Returning modified
	// bytes with VerdictPass rewrites the packet: data itself,
	// ctx.Packet(data) and ctx.HTTP(data) are shared with the other hops
	// and read-only, so a rewrite is a new slice.
	Process(ctx *Context, data []byte) (out []byte, v Verdict, err error)
}

// Spec describes a registered middlebox type and its resource model.
type Spec struct {
	// Type is the registry key, e.g. "tls-verify".
	Type string
	// New builds an instance from a configuration map.
	New func(cfg map[string]string) (Box, error)
	// Keys lists the config keys New reads. They and "fail", which every
	// type takes, are all Instantiate accepts: it refuses any other key
	// by name, so a misspelt key (secret= for secrets=) fails the deploy
	// instead of booting a box without what the key was meant to set.
	Keys []string
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

// checkKeys refuses a config with a key s does not declare, naming the
// first such key in sorted order.
func (s *Spec) checkKeys(cfg map[string]string) error {
	var unknown []string
	for k := range cfg {
		if k != "fail" && !slices.Contains(s.Keys, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	slices.Sort(unknown)
	return fmt.Errorf("%w %q for %s", ErrUnknownKey, unknown[0], s.Type)
}

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
	// key is the chain's "namespace/name" key in Runtime.chains.
	key string
	// owner is the owner's entry (Runtime.owners[Owner]): its
	// execution lock, and the list this chain is on.
	owner *ownerEntry
}

// AlertCap bounds the runtime's alert ring: the oldest alerts are
// evicted (and counted in AlertsDropped) once it is full.
const AlertCap = 4096

// ownerEntry is one owner's share of the runtime: the lock that
// serializes chain execution over its instances, and its chains.
type ownerEntry struct {
	mu sync.Mutex
	// refs counts the owner's instances and chains; the entry leaves
	// Runtime.owners with the last one. Guarded by Runtime.mu.
	refs int
	// chains lists the owner's chains, so Terminate and TeardownUser
	// walk one tenant's chains rather than the host's: a chain holds
	// only its owner's instances (ErrCrossUser). Guarded by Runtime.mu.
	chains []*Chain
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
// OnEvent — must not call back into it (Context.Alert, Context.Packet
// and Context.HTTP are the sanctioned ways in). Now and Spec.New are
// called from concurrent executions and must be goroutine-safe.
// Counters and health read off a returned *Instance are stable only
// while no chain of its owner is executing.
type Runtime struct {
	// Now supplies simulated time.
	Now func() time.Duration
	// MemoryCapBytes bounds total instance memory. Zero means 1 GiB.
	MemoryCapBytes int
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
	owners    map[string]*ownerEntry
	memUsed   int
	nextID    int
	// chainVisits counts the chains Terminate has examined, the work a
	// teardown costs; guarded by mu.
	chainVisits int

	// evMu guards the alert ring and serializes OnEvent. It is a leaf:
	// nothing else is acquired under it.
	evMu sync.Mutex
	// alerts is a ring: once len == AlertCap, alertHead is the
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
		owners:    make(map[string]*ownerEntry),
	}
}

// retain adds one reference (an instance or a chain) to owner's entry,
// creating it on first use. The caller holds mu exclusively.
func (r *Runtime) retain(owner string) *ownerEntry {
	l := r.owners[owner]
	if l == nil {
		l = &ownerEntry{}
		r.owners[owner] = l
	}
	l.refs++
	return l
}

// release drops one reference; the owner's entry goes with its last
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

// spec returns the registered Spec of typ. The caller holds mu.
func (r *Runtime) spec(typ string) (*Spec, error) {
	spec, ok := r.registry[typ]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, typ)
	}
	return spec, nil
}

// CheckConfig returns the error Instantiate refuses typ and cfg with
// when the registry alone decides: a type that is not registered, or a
// config key the type does not declare. It boots nothing, so a tool can
// hold a configuration to the host's registry before any deploy.
func (r *Runtime) CheckConfig(typ string, cfg map[string]string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	spec, err := r.spec(typ)
	if err != nil {
		return err
	}
	return spec.checkKeys(cfg)
}

// Instantiate boots an instance of the named type for owner. The instance
// becomes usable BootDelay after the call (simulated time); the returned
// Instance reports that in ReadyAt.
func (r *Runtime) Instantiate(owner, typ string, cfg map[string]string) (*Instance, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec, err := r.spec(typ)
	if err != nil {
		return nil, err
	}
	if r.memUsed+spec.memory() > r.memCap() {
		return nil, fmt.Errorf("%w: need %d, %d of %d in use", ErrMemoryExceeded, spec.memory(), r.memUsed, r.memCap())
	}
	if err := spec.checkKeys(cfg); err != nil {
		return nil, err
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
	// Remove it from any chains that reference it: only its owner's can
	// (ErrCrossUser), and their list is read before release can drop
	// the entry. A chain that loses a fail-closed box remembers that:
	// if it is ever emptied this way it drops traffic rather than
	// passing everything the removed box was there to filter.
	var chains []*Chain
	if o := r.owners[inst.Owner]; o != nil {
		chains = o.chains
	}
	r.release(inst.Owner)
	for _, c := range chains {
		r.chainVisits++
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
// returns how many instances were released. Chains come off the owner's
// list; instances are found by a scan of the host's, as this is an
// operator's bulk removal and not the per-session teardown path (the
// deployment server terminates its own instance IDs).
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
	if o := r.owners[owner]; o != nil {
		for _, c := range o.chains {
			delete(r.chains, c.key)
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

// OwnerCount reports how many owners hold an instance or a chain on the
// host: every owner that leaves takes its entry along, so after a
// tenant's teardown this is back where it was.
func (r *Runtime) OwnerCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.owners)
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
	c := &Chain{Name: name, Owner: owner, OwnerAddrs: ownerAddrs, key: key}
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
	c.owner = r.retain(owner)
	c.owner.chains = append(c.owner.chains, c)
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
		if i := slices.Index(c.owner.chains, c); i >= 0 {
			c.owner.chains = slices.Delete(c.owner.chains, i, i+1)
		}
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
	c.owner.mu.Lock()
	defer c.owner.mu.Unlock()
	return r.run(c, data) //lint:allow lockorder mu is held shared and the owner lock serializes only this owner's boxes (order: Server.mu → Runtime.mu shared → owner lock → evMu leaf); Process cannot re-enter the runtime (TestParallelOwnersExactCounters churns the control plane under chain traffic)
}

// run executes one packet through c. The caller holds r.mu shared and
// c's owner lock.
func (r *Runtime) run(c *Chain, data []byte) ([]byte, time.Duration, error) {
	now := r.Now()
	var delay time.Duration

	// One pooled Context per chain invocation, re-pointed per hop: the
	// hot path decodes the headers once, for the isolation check, and
	// parses the HTTP message once, into storage the previous invocation
	// already grew.
	ctx := ctxPool.Get().(*Context)
	ctx.Owner, ctx.runtime, ctx.entered = c.Owner, r, data
	defer ctx.release()
	if len(c.OwnerAddrs) > 0 && !packetBelongsTo(c, ctx.headers(data)) {
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
		out, v, err, panicked := callBox(ctx, inst.Box, cur)
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

// pushAlert appends to the bounded alert ring, evicting (and counting)
// the oldest alert once the ring is full. Its only caller is
// Context.Alert, inside a Process call.
func (r *Runtime) pushAlert(a Alert) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	if len(r.alerts) < AlertCap {
		r.alerts = append(r.alerts, a)
		return
	}
	r.alerts[r.alertHead] = a
	r.alertHead = (r.alertHead + 1) % len(r.alerts)
	r.alertsDropped.Add(1)
}

// Alerts returns alerts recorded for owner (all owners when owner is
// ""), oldest first. Only the newest AlertCap alerts are retained;
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
