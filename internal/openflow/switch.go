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
// and meters) and an optional middlebox executor. Process is the scalar
// reference interpreter of the table; the dataplane pipeline's workers
// run their own copy of the same action switch over the same table type,
// and the differential tests hold the two together.
type Switch struct {
	ID    string
	Table *FlowTable

	// Chains executes Middlebox actions; nil makes such actions drops
	// (fail-closed: PVN traffic must not bypass its middleboxes).
	Chains ChainExecutor
	// Now supplies simulated time for counters/timeouts/meters.
	Now func() time.Duration

	// Counters.
	RxPackets, Dropped, PacketIns int64
}

// NewSwitch returns a switch with an empty table. now may be nil, in
// which case time zero is used everywhere (fine for pure table tests).
func NewSwitch(id string, now func() time.Duration) *Switch {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Switch{ID: id, Table: NewFlowTable(), Now: now}
}

// Process runs one packet (raw IPv4 bytes) through the pipeline and
// returns its disposition.
func (s *Switch) Process(data []byte, inPort uint16) Disposition {
	s.RxPackets++
	now := s.Now()
	s.Table.Expire(now)

	pkt := packet.Decode(data, packet.LayerTypeIPv4)
	fields := ExtractFields(pkt, inPort)
	actions, entry := s.Table.Lookup(fields, len(data), now)

	d := Disposition{Data: data, Entry: entry}
	for _, a := range actions {
		switch a.Type {
		case ActionTypeOutput:
			d.Verdict = VerdictOutput
			d.Port = a.Port
			return d

		case ActionTypeDrop:
			s.Dropped++
			d.Verdict = VerdictDrop
			return d

		case ActionTypeController:
			s.PacketIns++
			d.Verdict = VerdictController
			return d

		case ActionTypeTunnel:
			d.Verdict = VerdictTunnel
			d.TunnelName = a.Tunnel
			return d

		case ActionTypeMiddlebox:
			if s.Chains == nil {
				s.Dropped++
				d.Verdict = VerdictDrop
				return d
			}
			out, delay, err := s.Chains.ExecuteChain(a.Chain, d.Data)
			d.Delay += delay
			if err != nil || out == nil {
				s.Dropped++
				d.Verdict = VerdictDrop
				return d
			}
			d.Data = out

		case ActionTypeMeter:
			d.Delay += s.Table.Shape(a.MeterID, now+d.Delay, len(d.Data))

		case ActionTypeSetDst:
			out, err := RewriteDst(d.Data, a.Dst, a.DstPort)
			if err != nil {
				s.Dropped++
				d.Verdict = VerdictDrop
				return d
			}
			d.Data = out
		}
	}
	// Action list ended without a terminal action: drop, per OpenFlow.
	s.Dropped++
	d.Verdict = VerdictDrop
	return d
}

// RewriteDst returns a copy of the IPv4 packet with its destination
// address (and, if port is nonzero and the packet is TCP/UDP, destination
// port) rewritten, with all checksums recomputed.
func RewriteDst(data []byte, dst packet.IPv4Address, port uint16) ([]byte, error) {
	p := packet.Decode(data, packet.LayerTypeIPv4)
	ip := p.IPv4()
	if ip == nil {
		return nil, fmt.Errorf("openflow: rewrite of non-IPv4 packet")
	}
	newIP := &packet.IPv4{
		TOS: ip.TOS, ID: ip.ID, Flags: ip.Flags, FragOff: ip.FragOff,
		TTL: ip.TTL, Protocol: ip.Protocol, Src: ip.Src, Dst: dst,
	}
	switch {
	case p.TCP() != nil:
		t := p.TCP()
		nt := &packet.TCP{
			SrcPort: t.SrcPort, DstPort: t.DstPort, Seq: t.Seq, Ack: t.Ack,
			Flags: t.Flags, Window: t.Window, Urgent: t.Urgent,
		}
		if port != 0 {
			nt.DstPort = port
		}
		nt.SetNetworkLayerForChecksum(newIP)
		return packet.SerializeToBytes(newIP, nt, packet.Payload(t.LayerPayload()))
	case p.UDP() != nil:
		u := p.UDP()
		nu := &packet.UDP{SrcPort: u.SrcPort, DstPort: u.DstPort}
		if port != 0 {
			nu.DstPort = port
		}
		nu.SetNetworkLayerForChecksum(newIP)
		return packet.SerializeToBytes(newIP, nu, packet.Payload(u.LayerPayload()))
	default:
		return packet.SerializeToBytes(newIP, packet.Payload(ip.LayerPayload()))
	}
}
