package dataplane

import (
	"time"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// refSwitch is the differential's oracle: a scalar interpreter written
// independently of openflow.FlowTable.Interpret and the flow cache. It
// decodes every packet in full, reads the rule through the uncached
// Lookup, and runs its own action switch, so it judges a malformed
// frame on its own decode even when its 5-tuple is cached elsewhere.
type refSwitch struct {
	table  *openflow.FlowTable
	chains openflow.ChainExecutor
	now    func() time.Duration

	// chainErrs counts packets whose chain returned an error.
	chainErrs int64
}

func newRefSwitch(chains openflow.ChainExecutor, now func() time.Duration) *refSwitch {
	return &refSwitch{table: openflow.NewFlowTable(), chains: chains, now: now}
}

// process runs one packet to its disposition.
func (s *refSwitch) process(data []byte, inPort uint16) openflow.Disposition {
	now := s.now()
	s.table.Expire(now)

	pkt := packet.Decode(data, packet.LayerTypeIPv4)
	fields := openflow.ExtractFields(pkt, inPort)
	actions, entry := s.table.Lookup(fields, len(data), now)

	d := openflow.Disposition{Data: data, Entry: entry}
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			d.Verdict = openflow.VerdictOutput
			d.Port = a.Port
			return d

		case openflow.ActionTypeDrop:
			d.Verdict = openflow.VerdictDrop
			return d

		case openflow.ActionTypeController:
			d.Verdict = openflow.VerdictController
			return d

		case openflow.ActionTypeTunnel:
			d.Verdict = openflow.VerdictTunnel
			d.TunnelName = a.Tunnel
			return d

		case openflow.ActionTypeMiddlebox:
			if s.chains == nil {
				d.Verdict = openflow.VerdictDrop
				return d
			}
			out, delay, err := s.chains.ExecuteChain(a.Chain, d.Data)
			d.Delay += delay
			if err != nil {
				s.chainErrs++
			}
			if err != nil || out == nil {
				d.Verdict = openflow.VerdictDrop
				return d
			}
			d.Data = out

		case openflow.ActionTypeMeter:
			d.Delay += s.table.Shape(a.MeterID, now+d.Delay, len(d.Data))
		}
	}
	// Action list ended without a terminal action: drop, per OpenFlow.
	d.Verdict = openflow.VerdictDrop
	return d
}
