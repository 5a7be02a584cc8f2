// Package tcpflow is a packet-level TCP implementation running over the
// netsim substrate: real SYN/SYN-ACK/ACK handshakes, cumulative ACKs
// with out-of-order reassembly, slow start and congestion avoidance,
// fast retransmit on three duplicate ACKs, and exponential-backoff
// retransmission timeouts — all driven by the simulated clock, packet by
// packet. Every connection runs with the same constants: a 1400-byte MSS,
// an initial window of 10 segments, a 1000-segment window cap and a
// 200 ms RTO floor.
//
// It serves two purposes in the PVN reproduction. First, the integration
// tests run their end-to-end connections over it, so every byte really
// crosses the simulated links and the PVN switch on the path. Second, it
// cross-validates internal/tcpsim: the analytic round model and this
// packet-level implementation must agree on the shape of every
// transfer-time claim (see the validation test and experiment E3c).
package tcpflow

import (
	"errors"
	"fmt"
	"time"

	"pvn/internal/netsim"
	"pvn/internal/packet"
	"pvn/internal/reasm"
)

// Errors.
var (
	ErrConnExists = errors.New("tcpflow: connection already exists")
	ErrNoListener = errors.New("tcpflow: no listener on port")
)

// The transport constants every connection runs with.
const (
	mss      = 1400                   // maximum segment payload, bytes
	initCwnd = 10                     // initial window, segments (RFC 6928)
	maxCwnd  = 1000                   // window cap, segments
	minRTO   = 200 * time.Millisecond // retransmission timeout floor
)

// connState is the TCP state machine subset we implement.
type connState int

const (
	stateSynSent connState = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack  *Stack
	local  packet.Endpoint
	remote packet.Endpoint
	state  connState

	// --- sender ---
	iss      uint32 // initial send sequence
	sndUna   uint32 // oldest unacknowledged
	sndNxt   uint32 // next sequence to send
	cwnd     float64
	ssthresh float64
	sendBuf  []byte // app data not yet transmitted
	// sentAt remembers transmission time of in-flight segment starts
	// for RTT sampling (Karn's rule: only first transmissions sampled).
	sentAt map[uint32]time.Duration
	retx   map[uint32]bool // segments that were retransmitted
	// segLen remembers each in-flight segment's length for retransmit.
	segLen map[uint32]int

	srtt, rttvar time.Duration
	rto          time.Duration
	rtoBackoff   int
	timerGen     int // invalidates stale RTO timers

	dupAcks int
	// finQueued means Close was called: send FIN once the buffer
	// drains.
	finQueued bool
	finSent   bool
	finSeq    uint32

	// --- receiver ---
	irs    uint32 // initial receive sequence
	rcvNxt uint32
	stream *reasm.Stream

	// OnData delivers contiguous received bytes.
	OnData func([]byte)
	// OnClose fires when the peer's FIN is consumed or the connection
	// resets.
	OnClose func()
	// OnEstablished fires when the handshake completes.
	OnEstablished func()

	// window retains unacknowledged payload for retransmission.
	window []winChunk

	// Stats.
	Retransmits  int64
	Timeouts     int64
	FastRecovers int64
	BytesSent    int64
	BytesRcvd    int64
}

// Stack runs TCP for one netsim node: it owns every connection keyed by
// flow and must be installed as (or called from) the node's handler.
type Stack struct {
	Node *netsim.Node
	// OutPort is the node port connections transmit on.
	OutPort int
	// RoutePort, when set, picks the node port per remote address —
	// multihomed nodes (proxies, the E12 device) need different ports
	// toward different peers. Overrides OutPort.
	RoutePort func(remote packet.IPv4Address) int
	// Addr is this stack's IPv4 address (used to build packets).
	Addr packet.IPv4Address

	conns     map[packet.Flow]*Conn
	listeners map[uint16]func(*Conn)
	nextPort  uint16
	rng       *netsim.RNG
}

// NewStack attaches a TCP stack to a node and installs its handler.
func NewStack(node *netsim.Node, addr packet.IPv4Address) *Stack {
	s := &Stack{
		Node: node, Addr: addr,
		conns:     make(map[packet.Flow]*Conn),
		listeners: make(map[uint16]func(*Conn)),
		nextPort:  40000,
		rng:       node.Network().RNG().Fork(),
	}
	node.Handler = func(n *netsim.Node, in *netsim.Port, msg *netsim.Message) {
		if data, ok := msg.Payload.([]byte); ok {
			s.Deliver(data)
		}
	}
	return s
}

// Listen registers an accept callback for a local port.
func (s *Stack) Listen(port uint16, accept func(*Conn)) {
	s.listeners[port] = accept
}

// Dial opens a connection to remote and returns it immediately; the
// handshake completes asynchronously (OnEstablished).
func (s *Stack) Dial(remote packet.Endpoint) (*Conn, error) {
	local := packet.Endpoint{Addr: s.Addr, Port: s.nextPort}
	s.nextPort++
	flow := packet.Flow{Proto: packet.IPProtoTCP, Src: local, Dst: remote}
	if _, dup := s.conns[flow]; dup {
		return nil, fmt.Errorf("%w: %v", ErrConnExists, flow)
	}
	c := s.newConn(local, remote)
	c.state = stateSynSent
	s.conns[flow] = c
	c.sendFlags(packet.TCPSyn, c.iss, 0, nil)
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	c.armRTO()
	return c, nil
}

func (s *Stack) newConn(local, remote packet.Endpoint) *Conn {
	iss := uint32(s.rng.Uint64())
	c := &Conn{
		stack: s, local: local, remote: remote,
		iss: iss, sndUna: iss, sndNxt: iss,
		cwnd: initCwnd, ssthresh: maxCwnd,
		sentAt: make(map[uint32]time.Duration),
		retx:   make(map[uint32]bool),
		segLen: make(map[uint32]int),
		rto:    time.Second,
		stream: reasm.NewStream(),
	}
	return c
}

func (s *Stack) clock() *netsim.Clock { return s.Node.Network().Clock }

// Deliver feeds one raw IPv4 packet into the stack (exported so
// middlebox-interposed topologies can hand packets over manually).
func (s *Stack) Deliver(data []byte) {
	p := packet.Decode(data, packet.LayerTypeIPv4)
	ip := p.IPv4()
	t := p.TCP()
	if ip == nil || t == nil || ip.Dst != s.Addr {
		return
	}
	local := packet.Endpoint{Addr: ip.Dst, Port: t.DstPort}
	remote := packet.Endpoint{Addr: ip.Src, Port: t.SrcPort}
	flow := packet.Flow{Proto: packet.IPProtoTCP, Src: local, Dst: remote}

	c, ok := s.conns[flow]
	if !ok {
		// New inbound connection?
		if t.Flags&packet.TCPSyn != 0 && t.Flags&packet.TCPAck == 0 {
			accept, listening := s.listeners[local.Port]
			if !listening {
				return // silently ignore (no RST in this subset)
			}
			c = s.newConn(local, remote)
			c.state = stateSynRcvd
			c.irs = t.Seq
			c.rcvNxt = t.Seq + 1
			s.conns[flow] = c
			c.sendFlags(packet.TCPSyn|packet.TCPAck, c.iss, c.rcvNxt, nil)
			c.sndNxt = c.iss + 1
			c.armRTO()
			accept(c)
		}
		return
	}
	c.handleSegment(t)
}

// --- Conn internals ---

// sendFlags emits a segment with explicit flags/seq/ack and payload.
func (c *Conn) sendFlags(flags byte, seq, ack uint32, payload []byte) {
	ip := &packet.IPv4{Src: c.local.Addr, Dst: c.remote.Addr, Protocol: packet.IPProtoTCP}
	t := &packet.TCP{
		SrcPort: c.local.Port, DstPort: c.remote.Port,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535,
	}
	t.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, t, packet.Payload(payload))
	if err != nil {
		return
	}
	idx := c.stack.OutPort
	if c.stack.RoutePort != nil {
		idx = c.stack.RoutePort(c.remote.Addr)
	}
	port := c.stack.Node.Port(idx)
	if port == nil {
		return
	}
	port.Send(&netsim.Message{Size: len(data), Payload: data, Src: c.stack.Node.ID})
}

// Write queues application data for transmission.
func (c *Conn) Write(data []byte) {
	c.sendBuf = append(c.sendBuf, data...)
	c.trySend()
}

// Close queues a FIN after pending data.
func (c *Conn) Close() {
	if c.finQueued || c.state == stateClosed {
		return
	}
	c.finQueued = true
	c.trySend()
}

// inFlight returns unacknowledged bytes.
func (c *Conn) inFlight() int { return int(c.sndNxt - c.sndUna) }

// trySend transmits as much buffered data as the congestion window
// allows.
func (c *Conn) trySend() {
	if c.state != stateEstablished {
		return
	}
	wnd := int(c.cwnd) * mss
	for len(c.sendBuf) > 0 && c.inFlight() < wnd {
		n := mss
		if n > len(c.sendBuf) {
			n = len(c.sendBuf)
		}
		seg := c.sendBuf[:n]
		seq := c.sndNxt
		c.sendFlags(packet.TCPAck, seq, c.rcvNxt, seg)
		c.sentAt[seq] = c.now()
		c.segLen[seq] = n
		// Keep the bytes until acknowledged (retransmission source):
		// we retain them in a window buffer indexed by seq offset.
		c.sndNxt += uint32(n)
		c.BytesSent += int64(n)
		c.retainWindow(seq, seg)
		c.sendBuf = c.sendBuf[n:]
	}
	if c.finQueued && !c.finSent && len(c.sendBuf) == 0 {
		c.finSeq = c.sndNxt
		c.sendFlags(packet.TCPFin|packet.TCPAck, c.sndNxt, c.rcvNxt, nil)
		c.sndNxt++
		c.finSent = true
	}
	if c.inFlight() > 0 {
		c.armRTO()
	}
}

// window retains unacked payload bytes for retransmission.
type winChunk struct {
	seq  uint32
	data []byte
}

// retained is stored on the connection lazily to avoid an extra field in
// the struct literal above.
func (c *Conn) retainWindow(seq uint32, data []byte) {
	c.window = append(c.window, winChunk{seq: seq, data: append([]byte(nil), data...)})
}

// findChunk returns retained bytes starting at seq, or nil.
func (c *Conn) findChunk(seq uint32) []byte {
	for _, ch := range c.window {
		if ch.seq == seq {
			return ch.data
		}
	}
	return nil
}

// releaseWindow discards chunks fully below una.
func (c *Conn) releaseWindow(una uint32) {
	kept := c.window[:0]
	for _, ch := range c.window {
		if int32(ch.seq+uint32(len(ch.data))-una) > 0 {
			kept = append(kept, ch)
		}
	}
	c.window = kept
}

func (c *Conn) now() time.Duration { return c.stack.clock().Now() }

// handleSegment runs the receive path.
func (c *Conn) handleSegment(t *packet.TCP) {
	switch c.state {
	case stateSynSent:
		if t.Flags&packet.TCPSyn != 0 && t.Flags&packet.TCPAck != 0 && t.Ack == c.iss+1 {
			c.irs = t.Seq
			c.rcvNxt = t.Seq + 1
			c.sndUna = t.Ack
			c.establish()
			c.sendFlags(packet.TCPAck, c.sndNxt, c.rcvNxt, nil)
		}
		return
	case stateSynRcvd:
		if t.Flags&packet.TCPAck != 0 && t.Ack == c.iss+1 {
			c.sndUna = t.Ack
			c.establish()
		}
		// Fall through: the ACK may carry data.
	case stateClosed:
		return
	}
	if c.state != stateEstablished {
		return
	}

	if t.Flags&packet.TCPAck != 0 {
		c.processAck(t.Ack)
	}
	payload := t.LayerPayload()
	if len(payload) > 0 {
		c.processData(t.Seq, payload)
	}
	if t.Flags&packet.TCPFin != 0 && t.Seq == c.rcvNxt {
		c.rcvNxt++
		c.sendFlags(packet.TCPAck, c.sndNxt, c.rcvNxt, nil)
		c.shutdown()
	}
}

func (c *Conn) establish() {
	c.state = stateEstablished
	c.stream.Anchor(c.rcvNxt)
	c.timerGen++ // cancel handshake RTO
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.trySend()
}

func (c *Conn) shutdown() {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.timerGen++
	if c.OnClose != nil {
		c.OnClose()
	}
}

// processAck implements NewReno-lite: cwnd growth, dupack fast
// retransmit, RTT estimation.
func (c *Conn) processAck(ack uint32) {
	if int32(ack-c.sndUna) <= 0 {
		// Duplicate (or old) ACK.
		if ack == c.sndUna && c.inFlight() > 0 {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
			}
		}
		return
	}
	// New data acknowledged.
	if at, ok := c.sentAt[c.sndUna]; ok && !c.retx[c.sndUna] {
		c.sampleRTT(c.now() - at)
	}
	for seq := range c.sentAt {
		if int32(seq-ack) < 0 {
			delete(c.sentAt, seq)
			delete(c.retx, seq)
			delete(c.segLen, seq)
		}
	}
	c.sndUna = ack
	c.releaseWindow(ack)
	c.dupAcks = 0
	c.rtoBackoff = 0

	// cwnd growth.
	if c.cwnd < c.ssthresh {
		c.cwnd++ // slow start: +1 per ACK
	} else {
		c.cwnd += 1 / c.cwnd // congestion avoidance
	}
	if c.cwnd > maxCwnd {
		c.cwnd = maxCwnd
	}

	if c.finSent && int32(ack-(c.finSeq+1)) >= 0 {
		c.shutdown()
		return
	}
	if c.inFlight() == 0 {
		c.timerGen++ // everything acked: stop the timer
	} else {
		c.armRTO()
	}
	c.trySend()
}

func (c *Conn) fastRetransmit() {
	c.FastRecovers++
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = c.ssthresh
	c.retransmitFirst()
}

func (c *Conn) retransmitFirst() {
	if c.finSent && c.sndUna == c.finSeq {
		c.Retransmits++
		c.sendFlags(packet.TCPFin|packet.TCPAck, c.finSeq, c.rcvNxt, nil)
		c.armRTO()
		return
	}
	data := c.findChunk(c.sndUna)
	if data == nil {
		return
	}
	c.Retransmits++
	c.retx[c.sndUna] = true
	c.sendFlags(packet.TCPAck, c.sndUna, c.rcvNxt, data)
	c.armRTO()
}

// sampleRTT updates SRTT/RTTVAR per RFC 6298.
func (c *Conn) sampleRTT(rtt time.Duration) {
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
}

// armRTO (re)starts the retransmission timer.
func (c *Conn) armRTO() {
	c.timerGen++
	gen := c.timerGen
	rto := c.rto << uint(c.rtoBackoff)
	if rto > time.Minute {
		rto = time.Minute
	}
	c.stack.clock().Schedule(rto, func() {
		if gen != c.timerGen || c.state == stateClosed {
			return
		}
		c.onRTO()
	})
}

func (c *Conn) onRTO() {
	c.Timeouts++
	switch c.state {
	case stateSynSent:
		c.sendFlags(packet.TCPSyn, c.iss, 0, nil)
	case stateSynRcvd:
		c.sendFlags(packet.TCPSyn|packet.TCPAck, c.iss, c.rcvNxt, nil)
	case stateEstablished:
		if c.inFlight() == 0 {
			return
		}
		c.ssthresh = c.cwnd / 2
		if c.ssthresh < 2 {
			c.ssthresh = 2
		}
		c.cwnd = 1
		c.retransmitFirst()
	}
	c.rtoBackoff++
	if c.rtoBackoff > 10 {
		c.shutdown() // give up, like real stacks eventually do
		return
	}
	c.armRTO()
}

// processData runs the receiver: reassemble, deliver, ACK.
func (c *Conn) processData(seq uint32, payload []byte) {
	if err := c.stream.Push(seq, payload); err != nil {
		// Buffer overrun: drop the segment; the sender will retransmit.
		c.sendFlags(packet.TCPAck, c.sndNxt, c.rcvNxt, nil)
		return
	}
	if ready := c.stream.Bytes(); len(ready) > 0 {
		c.rcvNxt += uint32(len(ready))
		c.BytesRcvd += int64(len(ready))
		out := append([]byte(nil), ready...)
		c.stream.Consume(len(ready))
		if c.OnData != nil {
			c.OnData(out)
		}
	}
	c.sendFlags(packet.TCPAck, c.sndNxt, c.rcvNxt, nil)
}
