// Package integration holds only tests. This harness glues the PVN data
// plane into the network simulator: a netsim node that hosts an edge
// switch, forwarding packets between the device side and the upstream
// side according to switch verdicts — including middlebox delays, meter
// shaping and tunnel encapsulation. The integration tests drive full
// device↔server round trips through a deployed PVN over simulated links,
// and run the auditor's probes against a data plane that really cheats.
package integration

import (
	"time"

	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/tunnel"
)

// SwitchNode hosts an openflow.Switch on a netsim node with a
// conventional port layout: node port 0 faces the device, node port 1
// faces upstream, node port 2 (optional) faces the tunnel host.
type SwitchNode struct {
	Node   *netsim.Node
	Switch *openflow.Switch
	// Tunnels wraps packets for VerdictTunnel; nil drops them.
	Tunnels *tunnel.Table
	// TunnelPort is the node port toward tunnel endpoints.
	TunnelPort int

	// Dropped counts packets the data plane discarded.
	Dropped int64
}

// Attach installs the forwarding handler. The switch's port numbering
// must match the node's: switch output port == node port index.
func Attach(n *netsim.Node, sw *openflow.Switch) *SwitchNode {
	sn := &SwitchNode{Node: n, Switch: sw, TunnelPort: 2}
	n.Handler = sn.handle
	return sn
}

func (sn *SwitchNode) handle(n *netsim.Node, in *netsim.Port, msg *netsim.Message) {
	data, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	inPort := uint16(0)
	if in != nil {
		inPort = uint16(in.Index())
	}
	d := sn.Switch.Process(data, inPort)
	clock := n.Network().Clock

	forward := func(portIdx int, payload []byte) {
		p := n.Port(portIdx)
		if p == nil {
			sn.Dropped++
			return
		}
		out := &netsim.Message{
			Size: len(payload), Payload: payload,
			Src: msg.Src, Dst: msg.Dst, TraceID: msg.TraceID,
			SentAt: msg.SentAt, Hops: msg.Hops,
		}
		if d.Delay > 0 {
			clock.Schedule(d.Delay, func() { p.Send(out) })
		} else {
			p.Send(out)
		}
	}

	switch d.Verdict {
	case openflow.VerdictOutput:
		forward(int(d.Port), d.Data)
	case openflow.VerdictTunnel:
		if sn.Tunnels == nil {
			sn.Dropped++
			return
		}
		outer, _, err := sn.Tunnels.Wrap(d.TunnelName, d.Data)
		if err != nil {
			sn.Dropped++
			return
		}
		forward(sn.TunnelPort, outer)
	default:
		sn.Dropped++
	}
}

// EchoServer answers every IPv4/TCP packet by swapping addresses/ports
// and echoing a response body of respBytes, modelling an application
// server on a netsim node.
type EchoServer struct {
	Node      *netsim.Node
	RespBytes int
	// Seen counts requests.
	Seen int64
	// LastPayload keeps the most recent request's TCP payload for
	// content-integrity assertions.
	LastPayload []byte
}

// AttachEcho installs the echo handler on a node.
func AttachEcho(n *netsim.Node, respBytes int) *EchoServer {
	es := &EchoServer{Node: n, RespBytes: respBytes}
	n.Handler = es.handle
	return es
}

func (es *EchoServer) handle(n *netsim.Node, in *netsim.Port, msg *netsim.Message) {
	data, ok := msg.Payload.([]byte)
	if !ok || in == nil {
		return
	}
	p := packet.Decode(data, packet.LayerTypeIPv4)
	ip := p.IPv4()
	t := p.TCP()
	if ip == nil || t == nil {
		return
	}
	es.Seen++
	es.LastPayload = append(es.LastPayload[:0], t.LayerPayload()...)

	body := make([]byte, es.RespBytes)
	for i := range body {
		body[i] = 'R'
	}
	nip := &packet.IPv4{Src: ip.Dst, Dst: ip.Src, Protocol: packet.IPProtoTCP}
	nt := &packet.TCP{SrcPort: t.DstPort, DstPort: t.SrcPort, Flags: packet.TCPAck}
	nt.SetNetworkLayerForChecksum(nip)
	resp, err := packet.SerializeToBytes(nip, nt, packet.Payload(body))
	if err != nil {
		return
	}
	in.Send(&netsim.Message{Size: len(resp), Payload: resp, Src: n.ID, Dst: msg.Src, TraceID: msg.TraceID})
}

// RTTCollector records request→response latency per trace ID at a
// device node.
type RTTCollector struct {
	Node *netsim.Node
	Dist *netsim.Dist

	sent map[uint64]time.Duration
	// Received counts responses.
	Received int64
	// LastData keeps the last response packet bytes.
	LastData []byte
}

// AttachCollector installs the response handler on the device node.
func AttachCollector(n *netsim.Node) *RTTCollector {
	rc := &RTTCollector{Node: n, Dist: &netsim.Dist{}, sent: make(map[uint64]time.Duration)}
	n.Handler = func(node *netsim.Node, in *netsim.Port, msg *netsim.Message) {
		if data, ok := msg.Payload.([]byte); ok {
			rc.LastData = data
		}
		if t0, ok := rc.sent[msg.TraceID]; ok {
			rc.Dist.AddDuration(node.Network().Clock.Now() - t0)
			rc.Received++
		}
	}
	return rc
}

// Send transmits a raw packet from the device with RTT tracking.
func (rc *RTTCollector) Send(data []byte, traceID uint64) {
	rc.sent[traceID] = rc.Node.Network().Clock.Now()
	rc.Node.Port(0).Send(&netsim.Message{Size: len(data), Payload: data, Src: rc.Node.ID, TraceID: traceID})
}
