package pvnc

import (
	"fmt"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// CompileOptions bind a PVNC to a concrete deployment point.
type CompileOptions struct {
	// Cookie tags every generated flow entry so the deployment can be
	// torn down and billed as a unit.
	Cookie uint64
	// DevicePort and UpstreamPort are the switch ports toward the
	// device and toward the Internet.
	DevicePort, UpstreamPort uint16
	// ChainNamespace prefixes chain references in middlebox actions
	// ("<namespace>/<chain>"). Empty defaults to the PVNC owner. A
	// deployment server that hosts the same PVNC for several of one
	// user's devices gives each deployment its own namespace so their
	// chains don't collide (§3.1: "a user can specify the same PVNC
	// for multiple devices").
	ChainNamespace string
}

// MeterPlan defines one meter to install.
type MeterPlan struct {
	ID      string
	RateBps float64
}

// Compiled is the lowered form of a PVNC: everything the deployment
// server installs.
type Compiled struct {
	// Rules are installed into the edge switch, already
	// priority-ordered. They are templates: install the copies Entries
	// hands out, never these.
	Rules []openflow.FlowEntry
	// Meters must exist before the rules referencing them.
	Meters []MeterPlan
	// Middleboxes must be instantiated (per middlebox runtime) before
	// traffic flows.
	Middleboxes []Middlebox
	// Chains are built from the instantiated middleboxes.
	Chains []Chain
	// Owner and Hash identify the deployment; Namespace is the chain
	// namespace middlebox actions reference.
	Owner     string
	Namespace string
	Hash      string
}

// Entries returns fresh flow entries for the compiled rules, in install
// order: one table's worth (each table a deployment is written to counts
// its own traffic), ready for FlowTable.InstallAll.
func (c *Compiled) Entries() []*openflow.FlowEntry {
	entries := make([]*openflow.FlowEntry, len(c.Rules))
	for i := range c.Rules {
		e := c.Rules[i]
		entries[i] = &e
	}
	return entries
}

// Compile lowers a validated PVNC to flow rules and deployment plans. It
// fails if Validate reports any violation: invalid configurations must
// not reach the data plane. It is TemplateCache.CompileShared without
// the cache: the skeleton is built, specialized once and dropped.
func Compile(p *PVNC, opt CompileOptions) (*Compiled, error) {
	if errs := p.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("pvnc: refusing to compile invalid config: %v", errs[0])
	}
	return buildSkeleton(p, opt).specialize(p, opt, nil), nil
}

// terminalActions returns the outbound and inbound terminal action lists
// for a policy.
func terminalActions(pol Policy, opt CompileOptions) (outb, inb []openflow.Action) {
	switch pol.Action {
	case ActDrop:
		return []openflow.Action{openflow.Drop()}, []openflow.Action{openflow.Drop()}
	case ActTunnel:
		return []openflow.Action{openflow.Tunnel(pol.TunnelName)}, []openflow.Action{openflow.Tunnel(pol.TunnelName)}
	default: // forward
		return []openflow.Action{openflow.Output(opt.UpstreamPort)}, []openflow.Action{openflow.Output(opt.DevicePort)}
	}
}

// matchFor builds the openflow match for one direction. outbound pins the
// device as source; inbound mirrors ports/prefix and pins the device as
// destination.
func matchFor(m MatchSpec, device packet.IPv4Address, outbound bool) openflow.Match {
	var om openflow.Match
	if m.Proto != "" {
		om.Fields |= openflow.FieldProto
		if m.Proto == "tcp" {
			om.Proto = packet.IPProtoTCP
		} else {
			om.Proto = packet.IPProtoUDP
		}
	}
	if outbound {
		om.Fields |= openflow.FieldSrcIP
		om.SrcIP, om.SrcBits = device, 32
		if m.SrcPort != 0 {
			om.Fields |= openflow.FieldSrcPort
			om.SrcPort = m.SrcPort
		}
		if m.DstPort != 0 {
			om.Fields |= openflow.FieldDstPort
			om.DstPort = m.DstPort
		}
		if m.hasDst {
			om.Fields |= openflow.FieldDstIP
			om.DstIP, om.DstBits = m.Dst, m.DstBits
		}
	} else {
		om.Fields |= openflow.FieldDstIP
		om.DstIP, om.DstBits = device, 32
		// Mirror: the remote's port/prefix appear on the source side.
		if m.SrcPort != 0 {
			om.Fields |= openflow.FieldDstPort
			om.DstPort = m.SrcPort
		}
		if m.DstPort != 0 {
			om.Fields |= openflow.FieldSrcPort
			om.SrcPort = m.DstPort
		}
		if m.hasDst {
			om.Fields |= openflow.FieldSrcIP
			om.SrcIP, om.SrcBits = m.Dst, m.DstBits
		}
	}
	return om
}
