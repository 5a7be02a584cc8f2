package reasm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"pvn/internal/netsim"
	"pvn/internal/packet"
)

func TestInOrderDelivery(t *testing.T) {
	s := NewStream()
	s.Push(1000, []byte("hello "))
	s.Push(1006, []byte("world"))
	if string(s.Bytes()) != "hello world" {
		t.Fatalf("stream %q", s.Bytes())
	}
	if s.OutOfOrder != 0 || s.Duplicates != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOutOfOrderReordered(t *testing.T) {
	s := NewStream()
	s.Push(100, []byte("AA"))
	s.Push(106, []byte("CC")) // gap at 102
	if string(s.Bytes()) != "AA" {
		t.Fatalf("premature delivery: %q", s.Bytes())
	}
	if _, ok := s.pending[106]; !ok || len(s.pending) != 1 {
		t.Fatalf("buffered %v, want the segment at 106", s.pending)
	}
	s.Push(102, []byte("BBBB"))
	if string(s.Bytes()) != "AABBBBCC" {
		t.Fatalf("stream %q", s.Bytes())
	}
	if s.OutOfOrder != 1 {
		t.Fatalf("ooo %d", s.OutOfOrder)
	}
}

func TestDuplicateAndOverlapTrimmed(t *testing.T) {
	s := NewStream()
	s.Push(0, []byte("abcdef"))
	s.Push(0, []byte("abcdef")) // exact duplicate
	if s.Duplicates != 1 {
		t.Fatalf("dups %d", s.Duplicates)
	}
	s.Push(4, []byte("efGHI")) // overlaps 2 bytes, extends 3
	if string(s.Bytes()) != "abcdefGHI" {
		t.Fatalf("stream %q", s.Bytes())
	}
	// Retransmission fully inside delivered data.
	s.Push(2, []byte("cd"))
	if string(s.Bytes()) != "abcdefGHI" {
		t.Fatalf("stream changed: %q", s.Bytes())
	}
}

func TestOverlappingOutOfOrderSegment(t *testing.T) {
	s := NewStream()
	s.Push(0, []byte("0123"))
	s.Push(2, []byte("23456")) // starts before a gap? no — overlaps tail
	if string(s.Bytes()) != "0123456" {
		t.Fatalf("stream %q", s.Bytes())
	}
}

func TestSequenceWraparound(t *testing.T) {
	s := NewStream()
	start := uint32(0xFFFFFFFC) // 4 bytes before wrap
	s.Push(start, []byte("ABCD"))
	s.Push(0, []byte("EFGH")) // post-wrap
	if string(s.Bytes()) != "ABCDEFGH" {
		t.Fatalf("stream %q", s.Bytes())
	}
	// Out of order across the wrap.
	s2 := NewStream()
	s2.Push(0xFFFFFFFE, []byte("ab"))
	s2.Push(4, []byte("gh")) // gap 0..3
	s2.Push(0, []byte("cdef"))
	if string(s2.Bytes()) != "abcdefgh" {
		t.Fatalf("wrapped ooo stream %q", s2.Bytes())
	}
}

func TestConsume(t *testing.T) {
	s := NewStream()
	s.Push(0, []byte("recordArecordB"))
	s.Consume(7)
	if string(s.Bytes()) != "recordB" {
		t.Fatalf("after consume: %q", s.Bytes())
	}
	s.Consume(100) // over-consume clamps
	if len(s.Bytes()) != 0 {
		t.Fatal("over-consume left data")
	}
}

func TestBufferLimit(t *testing.T) {
	s := NewStream()
	s.Push(0, []byte("x"))
	if err := s.Push(100, bytes.Repeat([]byte("y"), MaxBuffered)); err != nil {
		t.Fatal(err)
	}
	err := s.Push(MaxBuffered+200, []byte("z"))
	if !errors.Is(err, ErrBufferExceeded) {
		t.Fatalf("err=%v", err)
	}
}

func TestEmptyPushIgnored(t *testing.T) {
	s := NewStream()
	if err := s.Push(5, nil); err != nil {
		t.Fatal(err)
	}
	s.Push(10, []byte("anchor")) // first real segment anchors at 10
	if string(s.Bytes()) != "anchor" {
		t.Fatalf("stream %q", s.Bytes())
	}
}

// TestQuickRandomArrivalOrder: any permutation of segments reassembles
// to the original byte string.
func TestQuickRandomArrivalOrder(t *testing.T) {
	if err := quick.Check(func(seed uint64, nSegs uint8) bool {
		rng := netsim.NewRNG(seed)
		n := int(nSegs)%12 + 2
		// Build the ground-truth stream as variable-size segments.
		var truth []byte
		type seg struct {
			seq  uint32
			data []byte
		}
		var segs []seg
		base := uint32(rng.Uint64()) // random anchor, wraparound included
		offset := uint32(0)
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(40)
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
			segs = append(segs, seg{seq: base + offset, data: data})
			truth = append(truth, data...)
			offset += uint32(size)
		}
		// The first segment must arrive first to anchor the stream (a
		// SYN would anchor real streams); shuffle the rest.
		rest := segs[1:]
		for i := len(rest) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			rest[i], rest[j] = rest[j], rest[i]
		}
		s := NewStream()
		if err := s.Push(segs[0].seq, segs[0].data); err != nil {
			return false
		}
		for _, sg := range rest {
			if err := s.Push(sg.seq, sg.data); err != nil {
				return false
			}
		}
		return bytes.Equal(s.Bytes(), truth)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblerRoutesFlows(t *testing.T) {
	a := NewAssembler()
	mk := func(srcPort uint16, seq uint32, payload string) *packet.Packet {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.1"), Dst: packet.MustParseIPv4("10.0.0.2"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: srcPort, DstPort: 9999, Seq: seq}
		tcp.SetNetworkLayerForChecksum(ip)
		data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
		return packet.Decode(data, packet.LayerTypeIPv4)
	}
	s1, err := a.Feed(mk(1111, 0, "one-"))
	if err != nil || s1 == nil {
		t.Fatal(err)
	}
	a.Feed(mk(2222, 500, "two-"))
	a.Feed(mk(1111, 4, "more"))
	if string(s1.Bytes()) != "one-more" {
		t.Fatalf("flow 1 stream %q", s1.Bytes())
	}
	if a.Flows() != 2 {
		t.Fatalf("flows %d", a.Flows())
	}
	// Directions are independent streams.
	f1, _ := packet.FlowOf(mk(1111, 0, "x"))
	if next, ok := a.Next(f1); !ok || next != 8 {
		t.Fatalf("flow 1 expects %d (started %v), want 8", next, ok)
	}
	if _, ok := a.Next(f1.Reverse()); ok {
		t.Fatal("the reverse direction has a stream")
	}
	a.Release(f1)
	if _, ok := a.Next(f1); ok || a.Flows() != 1 {
		t.Fatalf("flows %d after releasing flow 1, want 1", a.Flows())
	}
}

func TestAssemblerIgnoresNonTCP(t *testing.T) {
	a := NewAssembler()
	ip := &packet.IPv4{Src: packet.MustParseIPv4("1.1.1.1"), Dst: packet.MustParseIPv4("2.2.2.2"), Protocol: packet.IPProtoUDP}
	udp := &packet.UDP{SrcPort: 1, DstPort: 2}
	udp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, udp, packet.Payload("x"))
	s, err := a.Feed(packet.Decode(data, packet.LayerTypeIPv4))
	if s != nil || err != nil {
		t.Fatal("UDP fed a stream")
	}
}

func TestAnchorPinsSequence(t *testing.T) {
	s := NewStream()
	s.Anchor(1000)
	// A retransmitted segment starting before the anchor gets trimmed.
	s.Push(996, []byte("XXXXhello"))
	if string(s.Bytes()) != "hello" {
		t.Fatalf("stream %q", s.Bytes())
	}
	// Anchor after start is a no-op.
	s.Anchor(0)
	s.Push(1005, []byte(" world"))
	if string(s.Bytes()) != "hello world" {
		t.Fatalf("stream %q", s.Bytes())
	}
}

// TestDrainSkipsStaleSegments: a gap fill that makes one buffered
// segment stale and another one overlap the new edge must deliver the
// overlapping one, whatever order the buffer is walked in. Conflicting
// copies of the same bytes resolve the same way on every run: the
// buffered segment with the lowest start wins.
func TestDrainSkipsStaleSegments(t *testing.T) {
	for run := 0; run < 100; run++ {
		s := NewStream()
		s.Anchor(0)
		s.Push(2, []byte("234"))
		s.Push(6, []byte("6789ab"))
		s.Push(0, []byte("01234567"))
		if got := string(s.Bytes()); got != "0123456789ab" {
			t.Fatalf("run %d: stream %q, want all 12 bytes", run, got)
		}
		if len(s.pending) != 0 {
			t.Fatalf("run %d: segments left buffered: %v", run, s.pending)
		}

		// A longer copy at a buffered start adds the bytes past the first.
		l := NewStream()
		l.Anchor(0)
		l.Push(3, []byte("3"))
		l.Push(3, []byte("XY"))
		l.Push(0, []byte("012"))
		if got := string(l.Bytes()); got != "0123Y" {
			t.Fatalf("run %d: stream %q, want the first copy extended by the longer one", run, got)
		}

		c := NewStream()
		c.Anchor(0)
		c.Push(3, []byte("aaaaaa"))  // [3,9)
		c.Push(5, []byte("bbbbbbb")) // [5,12)
		c.Push(0, []byte("000000"))  // [0,6)
		if got := string(c.Bytes()); got != "000000aaabbb" {
			t.Fatalf("run %d: conflicting overlaps gave %q, want the lowest start to win", run, got)
		}
	}
}

// FuzzReassemble holds the stream to a plain byte array: every segment
// of one consistent stream writes the bytes it carries where none were
// written yet, and the stream must deliver exactly the array's covered
// prefix, whatever the segmentation, duplication and arrival order.
// plan is read as (start, length) byte pairs over data.
func FuzzReassemble(f *testing.F) {
	f.Add(uint32(0), []byte("0123456789ab"), []byte{2, 2, 6, 5, 0, 7})
	f.Add(uint32(0xFFFFFFFA), []byte("wraparound!"), []byte{4, 3, 0, 3, 0, 10, 4, 3})
	f.Add(uint32(7), []byte("abcdefgh"), []byte{0, 7, 0, 7, 3, 1})
	f.Fuzz(func(t *testing.T, base uint32, data, plan []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		s := NewStream()
		s.Anchor(base)
		want := make([]byte, len(data))
		have := make([]bool, len(data))
		for i := 0; i+1 < len(plan); i += 2 {
			start := int(plan[i]) % len(data)
			end := start + 1 + int(plan[i+1])%(len(data)-start)
			for j := start; j < end; j++ {
				if !have[j] {
					want[j], have[j] = data[j], true
				}
			}
			if err := s.Push(base+uint32(start), data[start:end]); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		for n < len(have) && have[n] {
			n++
		}
		if got := s.Bytes(); !bytes.Equal(got, want[:n]) {
			t.Fatalf("stream delivered %q, want the covered prefix %q", got, want[:n])
		}
		for g := range s.pending {
			if !seqLess(base+uint32(n), g) {
				t.Fatalf("segment at %d stays buffered behind the delivered edge %d", g-base, n)
			}
		}
	})
}
