package packet

import "cmp"

// Rewrite names what Reserialize changes in a packet. A zero field keeps
// the packet's own value.
type Rewrite struct {
	// Dst replaces the IPv4 destination address.
	Dst IPv4Address
	// DstPort replaces the TCP or UDP destination port.
	DstPort uint16
	// Payload replaces what the TCP or UDP header carries, or what the
	// IPv4 header carries when there is neither.
	Payload SerializableLayer
}

// Reserialize builds a fresh IPv4 packet from p, an already decoded one,
// with r applied. Every header field r leaves alone is copied: the IPv4
// TOS, ID, flags, fragment offset, TTL, protocol and source, and the
// TCP ports, sequence numbers, flags, window and urgent pointer. Lengths
// and checksums are recomputed; IPv4 and TCP options are not emitted.
// It is the one way a box rewrites a packet it passes on.
func Reserialize(p *Packet, r Rewrite) ([]byte, error) {
	ip := p.IPv4()
	if ip == nil {
		return nil, errf(LayerTypeIPv4, "rewrite of a packet with no IPv4 header")
	}
	nip := *ip
	nip.Dst = cmp.Or(r.Dst, ip.Dst)
	layers, payload := []SerializableLayer{&nip}, ip.payload
	if t := p.TCP(); t != nil {
		nt := *t
		nt.DstPort = cmp.Or(r.DstPort, t.DstPort)
		nt.SetNetworkLayerForChecksum(&nip)
		layers, payload = append(layers, &nt), t.payload
	} else if u := p.UDP(); u != nil {
		nu := *u
		nu.DstPort = cmp.Or(r.DstPort, u.DstPort)
		nu.SetNetworkLayerForChecksum(&nip)
		layers, payload = append(layers, &nu), u.payload
	}
	if r.Payload == nil {
		r.Payload = Payload(payload)
	}
	return SerializeToBytes(append(layers, r.Payload)...)
}
