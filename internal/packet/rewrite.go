package packet

import "encoding/binary"

// Reseal makes b, a raw IPv4 packet whose bytes a box has edited, whole
// again: it sets the IPv4 total length to len(b), then recomputes the
// IPv4 header checksum and, when the header says TCP or UDP and b holds
// that header, the transport checksum (and the UDP length). A computed
// UDP checksum of 0 is written as 0xffff, as UDP.SerializeTo writes it.
// No other byte changes, so IPv4 and TCP options survive. It is the one
// way a box rewrites a packet it passes on: copy the bytes, edit them
// where a view of them points, Reseal.
func Reseal(b []byte) error {
	if len(b) < 20 || len(b) > 65535 || b[0]>>4 != 4 || int(b[0]&0x0f)*4 > len(b) || b[0]&0x0f < 5 {
		return errf(LayerTypeIPv4, "reseal of %d bytes that are no IPv4 packet", len(b))
	}
	hlen := int(b[0]&0x0f) * 4
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint16(b[10:12], Checksum(b[:hlen]))

	src, dst, seg := IPv4Address(b[12:16]), IPv4Address(b[16:20]), b[hlen:]
	switch proto := b[9]; {
	case proto == IPProtoTCP && len(seg) >= 20:
		seg[16], seg[17] = 0, 0
		binary.BigEndian.PutUint16(seg[16:18], transportChecksum(src, dst, proto, seg))
	case proto == IPProtoUDP && len(seg) >= 8:
		binary.BigEndian.PutUint16(seg[4:6], uint16(len(seg)))
		seg[6], seg[7] = 0, 0
		cs := transportChecksum(src, dst, proto, seg)
		if cs == 0 {
			cs = 0xffff
		}
		binary.BigEndian.PutUint16(seg[6:8], cs)
	}
	return nil
}
