package packet

// Buffer is a prepend-oriented serialization buffer: layers write
// outermost-last, each prepending its header in front of what is already
// there. This mirrors gopacket's SerializeBuffer and avoids copying the
// payload once per layer.
type Buffer struct {
	// data holds the bytes; the live region is data[start:].
	data  []byte
	start int
}

// NewBuffer returns a buffer with headroom for typical header stacks.
func NewBuffer() *Buffer {
	const headroom = 128
	return &Buffer{data: make([]byte, headroom), start: headroom}
}

// Bytes returns the serialized bytes accumulated so far. The slice is
// invalidated by further Prepend calls.
func (b *Buffer) Bytes() []byte { return b.data[b.start:] }

// Len returns the current content length.
func (b *Buffer) Len() int { return len(b.data) - b.start }

// Prepend returns n writable bytes in front of the current content.
func (b *Buffer) Prepend(n int) []byte {
	if b.start < n {
		grow := n - b.start + 256
		nd := make([]byte, len(b.data)+grow)
		copy(nd[grow:], b.data)
		b.data = nd
		b.start += grow
	}
	b.start -= n
	s := b.data[b.start : b.start+n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// PushBytes prepends a copy of p.
func (b *Buffer) PushBytes(p []byte) {
	copy(b.Prepend(len(p)), p)
}

// Clear resets the buffer for reuse, keeping its backing array.
func (b *Buffer) Clear() {
	b.start = len(b.data)
}

// Serialize writes the given layers into b, outermost first in the
// argument list (Ethernet, IPv4, TCP, payload), which is the natural
// reading order; internally they are applied in reverse so each can
// prepend its header around its payload.
func Serialize(b *Buffer, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return err
		}
	}
	return nil
}

// SerializeToBytes is a convenience that serializes layers into a fresh
// buffer and returns the bytes.
func SerializeToBytes(layers ...SerializableLayer) ([]byte, error) {
	b := NewBuffer()
	if err := Serialize(b, layers...); err != nil {
		return nil, err
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out, nil
}
