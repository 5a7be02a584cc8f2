package openflow

import (
	"fmt"
	"time"

	"pvn/internal/packet"
)

// Verdict is the final disposition of a processed packet.
type Verdict uint8

// Verdicts.
const (
	VerdictDrop Verdict = iota
	VerdictOutput
	VerdictController
	VerdictTunnel
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictDrop:
		return "drop"
	case VerdictOutput:
		return "output"
	case VerdictController:
		return "controller"
	case VerdictTunnel:
		return "tunnel"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Disposition reports what the switch decided for one packet.
type Disposition struct {
	Verdict Verdict
	// Port is the output port for VerdictOutput.
	Port uint16
	// TunnelName is set for VerdictTunnel.
	TunnelName string
	// Data is the (possibly rewritten) packet bytes.
	Data []byte
	// Delay accumulates meter shaping and middlebox processing time the
	// caller must apply before forwarding.
	Delay time.Duration
	// Entry is the flow entry that matched, nil on table miss.
	Entry *FlowEntry
}

// ChainExecutor runs a named middlebox chain over a packet. It returns the
// transformed packet (nil means the chain dropped it) and the processing
// delay it added.
type ChainExecutor interface {
	ExecuteChain(chain string, data []byte) (out []byte, delay time.Duration, err error)
}

// Switch is a match/action forwarding element: one flow table (rules
// and meters) and an optional middlebox executor. Process is the
// dataplane's inline mode: a packet runs on the caller's goroutine with
// no queue in front of it. A dataplane shard is a Switch too, over the
// pipeline's shared table; both run Resolve, then Interpret.
type Switch struct {
	ID    string
	Table *FlowTable

	// Chains executes Middlebox actions; nil makes such actions drops
	// (fail-closed: PVN traffic must not bypass its middleboxes).
	Chains ChainExecutor
	// Now supplies simulated time for meters.
	Now func() time.Duration

	// PacketIns counts table-miss punts to the controller.
	PacketIns int64

	cache *flowCache
	dec   packet.Decoder
}

// NewSwitch returns a switch with an empty table. now may be nil, in
// which case time zero is used everywhere (fine for pure table tests).
func NewSwitch(id string, now func() time.Duration) *Switch {
	return NewSwitchOn(id, NewFlowTable(), nil, now)
}

// NewSwitchOn returns a switch over an existing table and executor,
// with its own flow cache and decoder: how several switches (dataplane
// shards) share one rule set. now may be nil, as for NewSwitch.
func NewSwitchOn(id string, table *FlowTable, chains ChainExecutor, now func() time.Duration) *Switch {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Switch{ID: id, Table: table, Chains: chains, Now: now, cache: newFlowCache()}
}

// Process runs one packet (raw IPv4 bytes) to its disposition: Resolve
// its actions, bill them to the entry, Interpret them.
//
// The cache and decoder belong to the switch, so Process must be called
// from one goroutine at a time.
func (s *Switch) Process(data []byte, inPort uint16) Disposition {
	key, cacheable := KeyOf(data, inPort)
	actions, entry, _ := s.Resolve(key, cacheable, data, nil)
	if entry != nil {
		entry.Count(len(data))
	}
	term, out, delay, _ := s.Table.Interpret(actions, data, s.Now(), s.Chains)
	d := Disposition{Data: out, Delay: delay, Entry: entry}
	if term == nil {
		return d
	}
	switch term.Type {
	case ActionTypeOutput:
		d.Verdict, d.Port = VerdictOutput, term.Port
	case ActionTypeController:
		s.PacketIns++
		d.Verdict = VerdictController
	case ActionTypeTunnel:
		d.Verdict, d.TunnelName = VerdictTunnel, term.Tunnel
	}
	return d
}

// Resolve finds one packet's actions, the entry that supplied them (nil
// on table miss) and whether the flow cache answered. key and cacheable
// are KeyOf(data, inPort). A cache hit needs no decode; a miss decodes
// the headers into the switch's decoder and looks the fields up in the
// snapshot. The cache memoizes only decisions the decoder agreed with,
// and a malformed frame riding an already cached 5-tuple follows the
// flow's actions (see lookupScan). Resolve bills nothing: the caller
// Counts the entry for a packet it runs.
//
// When decodeNs is non-nil the miss's header decode is timed into it;
// callers sampling their stage split pass it on sampled batches only.
// Like Process, Resolve must be called from one goroutine at a time.
func (s *Switch) Resolve(key CacheKey, cacheable bool, data []byte, decodeNs *int64) (actions []Action, entry *FlowEntry, hit bool) {
	if actions, entry = s.Table.lookupCached(s.cache, key, cacheable); entry != nil {
		return actions, entry, true
	}
	var t0 int64
	if decodeNs != nil {
		t0 = PerfStamp()
	}
	fields := ExtractFields(s.dec.DecodeHeaders(data, packet.LayerTypeIPv4), key.InPort)
	if decodeNs != nil {
		*decodeNs += PerfStamp() - t0
	}
	actions, entry = s.Table.lookupScan(s.cache, key, cacheable, fields)
	return actions, entry, false
}

// CacheEvictions reports how many flows the switch's flow cache dropped
// because they went a whole generation without a hit; flows a rule
// write invalidated are not counted. Safe to call from any goroutine.
func (s *Switch) CacheEvictions() int64 { return s.cache.evictions.Load() }

var perfBase = time.Now() //lint:allow nondet PerfStamp's origin: its stamps are differences from it, never simulated time

// PerfStamp reads the monotonic clock alone, in ns since perfBase plus
// one (a stamp is never 0), for the packet path's perf counters: the
// decode, lookup and chain split and the queue-latency samples. What it
// returns never feeds simulated time.
func PerfStamp() int64 {
	return int64(time.Since(perfBase)) + 1 //lint:allow nondet perf-counter stamp: measures real worker cost, never feeds simulated time (E14 runs the sharded pipeline and TestExperimentsDeterministic holds its table bit-identical; TestNondetGolden keeps other packages off PerfStamp)
}

// Interpret runs one packet's action list to the action that decides
// it: the one action interpreter, behind Switch.Process and the
// dataplane workers alike.
//
// term is the Output, Controller or Tunnel action that ended the list;
// nil means drop — a Drop action, a chain that dropped or failed, a
// Middlebox action with no executor, or a list with no terminal action.
// out is the packet as it stood at that point (rewritten by chains; the
// bytes the chain was given when it dropped them), delay the meter shaping and chain processing time
// accumulated on the way, and err the chain's error when one failed.
func (t *FlowTable) Interpret(actions []Action, data []byte, now time.Duration, chains ChainExecutor) (term *Action, out []byte, delay time.Duration, err error) {
	out = data
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case ActionTypeOutput, ActionTypeController, ActionTypeTunnel:
			return a, out, delay, nil

		case ActionTypeDrop:
			return nil, out, delay, nil

		case ActionTypeMiddlebox:
			if chains == nil {
				return nil, out, delay, nil
			}
			next, d, err := chains.ExecuteChain(a.Chain, out)
			delay += d
			if err != nil || next == nil {
				return nil, out, delay, err
			}
			out = next

		case ActionTypeMeter:
			delay += t.Shape(a.MeterID, now+delay, len(out))
		}
	}
	// Action list ended without a terminal action: drop, per OpenFlow.
	return nil, out, delay, nil
}
