// Package openflow implements the match/action switching substrate PVNCs
// compile to: priority-ordered flow tables over header-field matches, an
// action vocabulary that includes middlebox redirection and rate meters,
// a switch that executes them, and a length-prefixed wire codec for the
// controller channel.
//
// It is intentionally a subset of real OpenFlow — the subset the paper's
// "standard match/action rules" (§3.1) requires — but the semantics
// (priority matching, table-miss to controller, counters, timeouts) follow
// the OpenFlow model.
package openflow

import (
	"fmt"
	"strings"

	"pvn/internal/packet"
)

// FieldSet is a bitmask of which Match fields are significant.
type FieldSet uint16

// Match field bits.
const (
	FieldInPort FieldSet = 1 << iota
	FieldEthType
	FieldSrcIP
	FieldDstIP
	FieldProto
	FieldSrcPort
	FieldDstPort
)

// Match selects packets by header fields. Only fields whose bit is set in
// Fields participate; everything else is wildcarded. IP matches support
// prefix masks.
type Match struct {
	Fields  FieldSet
	InPort  uint16
	EthType uint16
	SrcIP   packet.IPv4Address
	SrcBits uint8 // prefix length, 0 => /32 for compatibility
	DstIP   packet.IPv4Address
	DstBits uint8
	Proto   byte
	SrcPort uint16
	DstPort uint16
}

// PacketFields is the per-packet header summary matching operates on,
// extracted once per packet.
type PacketFields struct {
	InPort  uint16
	EthType uint16
	SrcIP   packet.IPv4Address
	DstIP   packet.IPv4Address
	Proto   byte
	SrcPort uint16
	DstPort uint16
}

// ExtractFields summarizes a decoded packet for matching. inPort is the
// switch port the packet arrived on.
func ExtractFields(p *packet.Packet, inPort uint16) PacketFields {
	f := PacketFields{InPort: inPort}
	if e := p.Ethernet(); e != nil {
		f.EthType = e.EtherType
	}
	if ip := p.IPv4(); ip != nil {
		if f.EthType == 0 {
			f.EthType = packet.EtherTypeIPv4
		}
		f.SrcIP, f.DstIP, f.Proto = ip.Src, ip.Dst, ip.Protocol
	}
	if t := p.TCP(); t != nil {
		f.SrcPort, f.DstPort = t.SrcPort, t.DstPort
	} else if u := p.UDP(); u != nil {
		f.SrcPort, f.DstPort = u.SrcPort, u.DstPort
	}
	return f
}

// Matches reports whether the packet summary satisfies the match.
func (m *Match) Matches(f PacketFields) bool {
	if m.Fields&FieldInPort != 0 && f.InPort != m.InPort {
		return false
	}
	if m.Fields&FieldEthType != 0 && f.EthType != m.EthType {
		return false
	}
	if m.Fields&FieldSrcIP != 0 && !prefixMatch(f.SrcIP, m.SrcIP, m.SrcBits) {
		return false
	}
	if m.Fields&FieldDstIP != 0 && !prefixMatch(f.DstIP, m.DstIP, m.DstBits) {
		return false
	}
	if m.Fields&FieldProto != 0 && f.Proto != m.Proto {
		return false
	}
	if m.Fields&FieldSrcPort != 0 && f.SrcPort != m.SrcPort {
		return false
	}
	if m.Fields&FieldDstPort != 0 && f.DstPort != m.DstPort {
		return false
	}
	return true
}

func prefixMatch(addr, want packet.IPv4Address, bits uint8) bool {
	if exactBits(bits) {
		return addr == want
	}
	a := uint32(addr[0])<<24 | uint32(addr[1])<<16 | uint32(addr[2])<<8 | uint32(addr[3])
	w := uint32(want[0])<<24 | uint32(want[1])<<16 | uint32(want[2])<<8 | uint32(want[3])
	mask := ^uint32(0) << (32 - bits)
	return a&mask == w&mask
}

// String renders the match compactly, e.g. "proto=6,dst=1.2.3.0/24,dport=443".
func (m *Match) String() string {
	if m.Fields == 0 {
		return "any"
	}
	var parts []string
	if m.Fields&FieldInPort != 0 {
		parts = append(parts, fmt.Sprintf("in=%d", m.InPort))
	}
	if m.Fields&FieldEthType != 0 {
		parts = append(parts, fmt.Sprintf("eth=0x%04x", m.EthType))
	}
	if m.Fields&FieldSrcIP != 0 {
		parts = append(parts, fmt.Sprintf("src=%s/%d", m.SrcIP, effBits(m.SrcBits)))
	}
	if m.Fields&FieldDstIP != 0 {
		parts = append(parts, fmt.Sprintf("dst=%s/%d", m.DstIP, effBits(m.DstBits)))
	}
	if m.Fields&FieldProto != 0 {
		parts = append(parts, fmt.Sprintf("proto=%d", m.Proto))
	}
	if m.Fields&FieldSrcPort != 0 {
		parts = append(parts, fmt.Sprintf("sport=%d", m.SrcPort))
	}
	if m.Fields&FieldDstPort != 0 {
		parts = append(parts, fmt.Sprintf("dport=%d", m.DstPort))
	}
	return strings.Join(parts, ",")
}

func effBits(b uint8) uint8 {
	if b == 0 || b > 32 {
		return 32
	}
	return b
}
