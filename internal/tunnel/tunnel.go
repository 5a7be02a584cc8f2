// Package tunnel implements the VPN-style encapsulation PVNs fall back
// to when the access network offers no (or only partial) PVN support
// (§3.3 "coping with unavailability"), and the selective-redirection
// machinery of Fig 1(c): instead of tunneling everything, only the flows
// that need a trusted execution environment pay the interdomain detour.
//
// The wire format is IP-in-UDP: outer IPv4 + UDP(port 4754) + an 8-byte
// tunnel header (magic, version, tunnel ID) + the inner IPv4 packet.
//
// The Table carries per-endpoint health state fed by active probes (see
// health.go): endpoint selection and per-flow failover are health-aware,
// and the whole table is safe under concurrent sharded-dataplane workers
// (RWMutex for topology/health, atomics for the per-packet counters).
package tunnel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvn/internal/health"
	"pvn/internal/packet"
)

// Port is the UDP port tunnels run over.
const Port = 4754

// headerLen is the tunnel header size after the UDP header.
const headerLen = 8

// magic identifies tunnel frames ("PN").
var magic = [2]byte{0x50, 0x4e}

// Overhead is the per-packet byte cost of tunneling: outer IPv4 (20) +
// UDP (8) + tunnel header.
const Overhead = 20 + 8 + headerLen

// Errors.
var (
	ErrNotTunnel = errors.New("tunnel: not a tunnel frame")
	ErrTruncated = errors.New("tunnel: truncated frame")
)

// Encap wraps an inner IPv4 packet for transport to a tunnel endpoint.
func Encap(inner []byte, outerSrc, outerDst packet.IPv4Address, tunnelID uint32) ([]byte, error) {
	hdr := make([]byte, headerLen)
	hdr[0], hdr[1] = magic[0], magic[1]
	hdr[2] = 1 // version
	binary.BigEndian.PutUint32(hdr[3:7], tunnelID)

	ip := &packet.IPv4{Src: outerSrc, Dst: outerDst, Protocol: packet.IPProtoUDP}
	udp := &packet.UDP{SrcPort: Port, DstPort: Port}
	udp.SetNetworkLayerForChecksum(ip)
	payload := append(hdr, inner...)
	return packet.SerializeToBytes(ip, udp, packet.Payload(payload))
}

// Decap unwraps a tunnel frame, returning the inner packet and tunnel ID.
func Decap(outer []byte) (inner []byte, tunnelID uint32, err error) {
	p := packet.Decode(outer, packet.LayerTypeIPv4)
	u := p.UDP()
	if u == nil || u.DstPort != Port {
		return nil, 0, ErrNotTunnel
	}
	payload := u.LayerPayload()
	if len(payload) < headerLen {
		return nil, 0, ErrTruncated
	}
	if payload[0] != magic[0] || payload[1] != magic[1] {
		return nil, 0, ErrNotTunnel
	}
	id := binary.BigEndian.Uint32(payload[3:7])
	return payload[headerLen:], id, nil
}

// Endpoint describes one place a PVN can tunnel to: a nearby
// PVN-supporting AS, a cloud VM, or the user's home network.
type Endpoint struct {
	// Name is the identifier PVNC tunnel actions reference.
	Name string
	// Addr is the endpoint's outer address.
	Addr packet.IPv4Address
	// ExtraRTT is the interdomain round-trip penalty relative to the
	// in-network path (§3.2: 10s of ms well connected, 100s poorly).
	// It is the selection cost until probes measure a real SRTT.
	ExtraRTT time.Duration
	// Trusted marks endpoints suitable for sensitive operations like
	// TLS interception (Fig 1c).
	Trusted bool
}

// Table holds a device's configured tunnel endpoints, their probed
// health, per-flow endpoint pins and usage counters.
//
// Concurrency: every method is safe for concurrent use. Wrap and Route
// are the hot paths (called per packet by dataplane workers) and take
// only the read lock in the common case; health transitions, Add and
// failover re-pins take the write lock. Set OnEvent/OnFailover before
// the table is shared.
type Table struct {
	// LocalAddr is the outer source address for encapsulation.
	LocalAddr packet.IPv4Address

	// Health tunes the probe-driven health ladder; the zero value is
	// live (see HealthConfig).
	Health HealthConfig
	// OnEvent, when set, receives endpoint health transitions. Called
	// outside the table lock; keep it cheap.
	OnEvent func(Event)
	// OnFailover, when set, observes each flow re-pinned off an
	// unhealthy endpoint — the redirection decisions an auditor ledger
	// records. Called outside the table lock.
	OnFailover func(flow packet.Flow, from, to string)

	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	nextID    uint32
	ids       map[string]uint32
	states    map[string]*endpointState
	pins      map[packet.Flow]string

	failovers atomic.Int64
}

// NewTable builds an empty tunnel table.
func NewTable(localAddr packet.IPv4Address) *Table {
	return &Table{
		LocalAddr: localAddr,
		endpoints: make(map[string]*Endpoint),
		ids:       make(map[string]uint32),
		states:    make(map[string]*endpointState),
		pins:      make(map[packet.Flow]string),
	}
}

// Add registers an endpoint (replacing any previous definition of the
// same name; its ID, counters and health carry over).
func (t *Table) Add(e *Endpoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endpoints[e.Name] = e
	if _, ok := t.ids[e.Name]; !ok {
		t.nextID++
		t.ids[e.Name] = t.nextID
	}
	if t.states[e.Name] == nil {
		t.states[e.Name] = &endpointState{}
	}
}

// Endpoint returns the named endpoint, or nil.
func (t *Table) Endpoint(name string) *Endpoint {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.endpoints[name]
}

// Names returns registered endpoint names, sorted, so logs and
// map-iteration-dependent selection are deterministic across runs.
func (t *Table) Names() []string {
	t.mu.RLock()
	out := make([]string, 0, len(t.endpoints))
	for n := range t.endpoints {
		out = append(out, n)
	}
	t.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Wrap encapsulates an inner packet toward the named endpoint and
// accounts it.
func (t *Table) Wrap(name string, inner []byte) ([]byte, *Endpoint, error) {
	t.mu.RLock()
	e := t.endpoints[name]
	id := t.ids[name]
	st := t.states[name]
	t.mu.RUnlock()
	if e == nil {
		return nil, nil, fmt.Errorf("tunnel: unknown endpoint %q", name)
	}
	out, err := Encap(inner, t.LocalAddr, e.Addr, id)
	if err != nil {
		return nil, nil, err
	}
	st.sent.Add(1)
	st.bytes.Add(int64(len(out)))
	return out, e, nil
}

// Sent returns how many packets were wrapped toward the named endpoint.
func (t *Table) Sent(name string) int64 {
	t.mu.RLock()
	st := t.states[name]
	t.mu.RUnlock()
	if st == nil {
		return 0
	}
	return st.sent.Load()
}

// Bytes returns how many outer bytes were wrapped toward the named
// endpoint.
func (t *Table) Bytes(name string) int64 {
	t.mu.RLock()
	st := t.states[name]
	t.mu.RUnlock()
	if st == nil {
		return 0
	}
	return st.bytes.Load()
}

// BestTrusted returns the best trusted endpoint under the probed health
// ranking — the "use active measurements to inform the costs of
// alternative locations" selection (§3.3). Endpoints rank by health tier
// (healthy before degraded/recovering), then by smoothed probe RTT
// (falling back to the configured ExtraRTT when unprobed), with a
// deterministic name tie-break. Down endpoints are skipped unless every
// trusted endpoint is down, in which case the statically-best one is
// returned (a fully dark table still names a place to try). ok is false
// when no trusted endpoint exists.
func (t *Table) BestTrusted() (*Endpoint, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e := t.bestLocked(true, true, ""); e != nil {
		return e, true
	}
	if e := t.bestLocked(true, false, ""); e != nil {
		return e, true
	}
	return nil, false
}

// bestLocked ranks endpoints under the lock. trustedOnly filters to
// trusted endpoints; skipDown excludes Down ones; exclude names one
// endpoint to avoid (the one being failed away from).
func (t *Table) bestLocked(trustedOnly, skipDown bool, exclude string) *Endpoint {
	var best *Endpoint
	var bestTier int
	var bestRTT time.Duration
	for name, e := range t.endpoints {
		if name == exclude || (trustedOnly && !e.Trusted) {
			continue
		}
		st := t.states[name]
		tier, rtt := 0, e.ExtraRTT
		if st != nil {
			tier = selectionTier(st.State())
			if st.srtt > 0 {
				rtt = st.srtt
			}
		}
		if skipDown && tier >= downTier {
			continue
		}
		if best == nil || tier < bestTier || (tier == bestTier && (rtt < bestRTT ||
			(rtt == bestRTT && e.Name < best.Name))) {
			best, bestTier, bestRTT = e, tier, rtt
		}
	}
	return best
}

// Route resolves which endpoint a packet of flow should actually use
// when the PVNC requests one. Flows pin to their first endpoint (so a
// conversation does not flap between locations) and are re-pinned to
// the best surviving endpoint when the pinned one goes Down — the
// hot-standby failover of §3.3. A trusted endpoint only ever fails over
// to another trusted endpoint: redirection must not silently downgrade
// the trust the PVNC asked for. failedOver reports that this call moved
// the flow off an endpoint that is down.
func (t *Table) Route(requested string, flow packet.Flow) (name string, failedOver bool) {
	key := flow.Canonical()

	// Fast path: the pinned (or requested) endpoint is not down.
	t.mu.RLock()
	cur, pinned := t.pins[key]
	if !pinned {
		cur = requested
	}
	st := t.states[cur]
	alive := st == nil || st.State() != health.Down
	t.mu.RUnlock()
	if pinned && alive {
		return cur, false
	}

	t.mu.Lock()
	// Re-read under the write lock: another worker may have re-pinned
	// this flow already.
	cur, pinned = t.pins[key]
	if !pinned {
		cur = requested
	}
	st = t.states[cur]
	if st == nil || st.State() != health.Down {
		if !pinned && t.endpoints[cur] != nil {
			t.pins[key] = cur
		}
		t.mu.Unlock()
		return cur, false
	}
	from := t.endpoints[cur]
	trustedOnly := from != nil && from.Trusted
	alt := t.bestLocked(trustedOnly, true, cur)
	if alt == nil {
		// Nowhere acceptable to go: keep the pin and let the packet
		// take its chances on the dead endpoint.
		t.mu.Unlock()
		return cur, false
	}
	t.pins[key] = alt.Name
	st.failedOver.Add(1)
	t.failovers.Add(1)
	hook := t.OnFailover
	t.mu.Unlock()
	if hook != nil {
		hook(key, cur, alt.Name)
	}
	return alt.Name, true
}

// Failovers reports how many flow re-pins the table has performed.
func (t *Table) Failovers() int64 { return t.failovers.Load() }

// PinnedTo reports how many flows are currently pinned to the named
// endpoint.
func (t *Table) PinnedTo(name string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, ep := range t.pins {
		if ep == name {
			n++
		}
	}
	return n
}

// EndpointStats is a point-in-time copy of one endpoint's counters and
// health.
type EndpointStats struct {
	Name        string
	Sent, Bytes int64
	Health      health.State
	// SRTT is the smoothed probe round-trip; zero until probed.
	SRTT time.Duration
	// ProbesSent/ProbesLost count health probes.
	ProbesSent, ProbesLost int64
	// FailedOver counts flows re-pinned away from this endpoint.
	FailedOver int64
}

// Stats is a snapshot of the whole table.
type Stats struct {
	// Endpoints are per-endpoint rows, sorted by name.
	Endpoints []EndpointStats
	// Failovers counts flow re-pins table-wide.
	Failovers int64
	// PinnedFlows is how many flows currently hold an endpoint pin.
	PinnedFlows int
}

// Stats returns a consistent snapshot of per-endpoint usage, health and
// failover counters. Safe to call from a metrics poller while workers
// Wrap/Route.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	out := Stats{
		Endpoints:   make([]EndpointStats, 0, len(t.endpoints)),
		Failovers:   t.failovers.Load(),
		PinnedFlows: len(t.pins),
	}
	for name := range t.endpoints {
		st := t.states[name]
		out.Endpoints = append(out.Endpoints, EndpointStats{
			Name:       name,
			Sent:       st.sent.Load(),
			Bytes:      st.bytes.Load(),
			Health:     st.State(),
			SRTT:       st.srtt,
			ProbesSent: st.probesSent.Load(),
			ProbesLost: st.probesLost.Load(),
			FailedOver: st.failedOver.Load(),
		})
	}
	t.mu.RUnlock()
	sort.Slice(out.Endpoints, func(i, j int) bool { return out.Endpoints[i].Name < out.Endpoints[j].Name })
	return out
}

// EndpointHealth reports the probed health of the named endpoint
// (Healthy for unknown or never-probed endpoints).
func (t *Table) EndpointHealth(name string) health.State {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if st := t.states[name]; st != nil {
		return st.State()
	}
	return health.Healthy
}
