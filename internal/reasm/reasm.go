// Package reasm implements TCP stream reassembly for PVN middleboxes:
// per-direction in-order byte streams rebuilt from possibly out-of-order,
// duplicated or overlapping segments, with sequence-number wraparound
// handled. Middleboxes that parse application messages larger than one
// segment (TLS certificate chains, big HTTP bodies) consume the
// contiguous stream instead of raw packets — the same job gopacket's
// tcpassembly does for real capture pipelines. Each stream buffers at
// most MaxBuffered out-of-order bytes.
package reasm

import (
	"errors"
	"fmt"

	"pvn/internal/packet"
)

// MaxBuffered caps the out-of-order bytes one stream buffers.
const MaxBuffered = 256 << 10

// ErrBufferExceeded reports an out-of-order buffer past MaxBuffered, which
// in a middlebox means the flow should be bypassed or dropped rather
// than buffered forever.
var ErrBufferExceeded = errors.New("reasm: out-of-order buffer limit exceeded")

// seqLess reports a < b in TCP sequence space (RFC 1982-style wraparound
// comparison).
func seqLess(a, b uint32) bool {
	return int32(a-b) < 0
}

// Stream reassembles one direction of one TCP connection.
type Stream struct {
	started bool
	next    uint32 // next expected sequence number
	// pending holds out-of-order segments keyed by sequence number.
	pending  map[uint32][]byte
	buffered int
	// ready is the contiguous reassembled byte stream not yet consumed.
	ready []byte

	// Stats.
	Delivered  int64 // bytes made contiguous
	Duplicates int64 // fully duplicate segments discarded
	OutOfOrder int64 // segments that had to wait
}

// NewStream creates a stream; the first pushed segment anchors the
// sequence space (or call Anchor to pin it explicitly).
func NewStream() *Stream {
	return &Stream{pending: make(map[uint32][]byte)}
}

// Anchor pins the next expected sequence number before any data arrives
// — a TCP receiver anchors at ISN+1 after the handshake, so a
// retransmitted first segment trims correctly. No-op once started.
func (s *Stream) Anchor(seq uint32) {
	if !s.started {
		s.started = true
		s.next = seq
	}
}

// Push adds a segment at the given sequence number. Overlaps with
// delivered data are trimmed (first copy wins), duplicates dropped, and
// out-of-order data buffered until the gap fills.
func (s *Stream) Push(seq uint32, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if !s.started {
		s.started = true
		s.next = seq
	}

	// Trim any prefix we already have.
	if seqLess(seq, s.next) {
		over := s.next - seq // bytes already delivered
		if uint32(len(data)) <= over {
			s.Duplicates++
			return nil
		}
		data = data[over:]
		seq = s.next
	}

	if seq == s.next {
		s.deliver(data)
		s.drainPending()
		return nil
	}

	// Out of order: buffer. A segment at an already-buffered start keeps
	// the first copy's bytes and adds only what extends past them.
	held := s.pending[seq]
	if len(data) <= len(held) {
		s.Duplicates++
		return nil
	}
	extra := len(data) - len(held)
	if s.buffered+extra > MaxBuffered {
		return fmt.Errorf("%w: %d buffered", ErrBufferExceeded, s.buffered)
	}
	s.pending[seq] = append(held, data[len(held):]...)
	s.buffered += extra
	s.OutOfOrder++
	return nil
}

func (s *Stream) deliver(data []byte) {
	s.ready = append(s.ready, data...)
	s.next += uint32(len(data))
	s.Delivered += int64(len(data))
}

// drainPending promotes buffered segments that have become contiguous.
// Each pass takes the segment starting at next or, failing that, the
// one with the lowest start before next (it overlaps what was just
// delivered), so a stale duplicate never hides a segment that covers
// next, and of two conflicting copies of a byte the lower start wins.
func (s *Stream) drainPending() {
	for len(s.pending) > 0 {
		seq := s.next
		seg, ok := s.pending[seq]
		if !ok {
			for q, data := range s.pending {
				if seqLess(q, s.next) && (!ok || seqLess(q, seq)) {
					seq, seg, ok = q, data, true
				}
			}
			if !ok {
				return
			}
		}
		delete(s.pending, seq)
		s.buffered -= len(seg)
		if end := seq + uint32(len(seg)); seqLess(s.next, end) {
			s.deliver(seg[s.next-seq:])
		} else {
			s.Duplicates++
		}
	}
}

// Bytes returns the contiguous stream accumulated so far without
// consuming it.
func (s *Stream) Bytes() []byte { return s.ready }

// Consume discards the first n contiguous bytes (a parser took them).
func (s *Stream) Consume(n int) {
	if n >= len(s.ready) {
		s.ready = s.ready[:0]
		return
	}
	s.ready = append(s.ready[:0], s.ready[n:]...)
}

// Assembler routes packets of many flows to per-direction streams.
type Assembler struct {
	streams map[packet.Flow]*Stream
}

// NewAssembler builds an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{streams: make(map[packet.Flow]*Stream)}
}

// Feed pushes a decoded TCP packet into its stream and returns that
// stream, or nil for non-TCP packets or empty payloads.
func (a *Assembler) Feed(p *packet.Packet) (*Stream, error) {
	t := p.TCP()
	if t == nil {
		return nil, nil
	}
	payload := t.LayerPayload()
	if len(payload) == 0 {
		return nil, nil
	}
	f, ok := packet.FlowOf(p)
	if !ok {
		return nil, nil
	}
	s := a.streams[f]
	if s == nil {
		s = NewStream()
		a.streams[f] = s
	}
	return s, s.Push(t.Seq, payload)
}

// Next reports the sequence number a flow's stream expects next, and
// false when the flow has no started stream.
func (a *Assembler) Next(f packet.Flow) (uint32, bool) {
	s, ok := a.streams[f]
	if !ok || !s.started {
		return 0, false
	}
	return s.next, true
}

// Release drops a flow's stream (connection closed).
func (a *Assembler) Release(f packet.Flow) { delete(a.streams, f) }

// Flows reports how many directional streams are live.
func (a *Assembler) Flows() int { return len(a.streams) }
