package packet

import (
	"encoding/binary"
	"strings"
)

// DNS record types this stack understands.
const (
	DNSTypeA     uint16 = 1
	DNSTypeNS    uint16 = 2
	DNSTypeCNAME uint16 = 5
	DNSTypeTXT   uint16 = 16
	DNSTypeAAAA  uint16 = 28
	DNSTypeRRSIG uint16 = 46
)

// DNSClassIN is the Internet class, the only one used here.
const DNSClassIN uint16 = 1

// DNS response codes.
const (
	DNSRcodeNoError  byte = 0
	DNSRcodeFormErr  byte = 1
	DNSRcodeServFail byte = 2
	DNSRcodeNXDomain byte = 3
)

// DNSQuestion is one query in the question section.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSRecord is one resource record.
type DNSRecord struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	// Data is the raw RDATA. For A records it is the 4 address bytes;
	// helpers below interpret common types.
	Data []byte
}

// A returns the record's IPv4 address for A records, or the zero address.
func (r *DNSRecord) A() IPv4Address {
	var a IPv4Address
	if r.Type == DNSTypeA && len(r.Data) == 4 {
		copy(a[:], r.Data)
	}
	return a
}

// DNS is a DNS message (RFC 1035 wire format). Name compression pointers
// are followed on decode; serialization always emits uncompressed names.
type DNS struct {
	ID     uint16
	QR     bool // response flag
	Opcode byte
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	AD     bool // authenticated data (DNSSEC)
	Rcode  byte

	Questions   []DNSQuestion
	Answers     []DNSRecord
	Authorities []DNSRecord
	Additionals []DNSRecord
}

// LayerType implements Layer.
func (*DNS) LayerType() LayerType { return LayerTypeDNS }

// LayerPayload implements Layer; DNS is a leaf layer.
func (*DNS) LayerPayload() []byte { return nil }

// NextLayerType implements DecodingLayer.
func (*DNS) NextLayerType() LayerType { return LayerTypeInvalid }

// DecodeFromBytes implements DecodingLayer.
func (d *DNS) DecodeFromBytes(data []byte) error {
	if len(data) < 12 {
		return errf(LayerTypeDNS, "message too short (%d bytes)", len(data))
	}
	d.ID = binary.BigEndian.Uint16(data[0:2])
	f := binary.BigEndian.Uint16(data[2:4])
	d.QR = f&0x8000 != 0
	d.Opcode = byte(f >> 11 & 0xf)
	d.AA = f&0x0400 != 0
	d.TC = f&0x0200 != 0
	d.RD = f&0x0100 != 0
	d.RA = f&0x0080 != 0
	d.AD = f&0x0020 != 0
	d.Rcode = byte(f & 0xf)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))

	off := 12
	d.Questions = d.Questions[:0]
	for i := 0; i < qd; i++ {
		name, n, err := decodeName(data, off)
		if err != nil {
			return err
		}
		off += n
		if off+4 > len(data) {
			return errf(LayerTypeDNS, "truncated question")
		}
		d.Questions = append(d.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
		})
		off += 4
	}
	var err error
	if d.Answers, off, err = decodeRecords(data, off, an); err != nil {
		return err
	}
	if d.Authorities, off, err = decodeRecords(data, off, ns); err != nil {
		return err
	}
	if d.Additionals, _, err = decodeRecords(data, off, ar); err != nil {
		return err
	}
	return nil
}

func decodeRecords(data []byte, off, count int) ([]DNSRecord, int, error) {
	var recs []DNSRecord
	for i := 0; i < count; i++ {
		name, n, err := decodeName(data, off)
		if err != nil {
			return nil, off, err
		}
		off += n
		if off+10 > len(data) {
			return nil, off, errf(LayerTypeDNS, "truncated record header")
		}
		r := DNSRecord{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(data[off+4 : off+8]),
		}
		rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
		off += 10
		if off+rdlen > len(data) {
			return nil, off, errf(LayerTypeDNS, "truncated RDATA")
		}
		r.Data = data[off : off+rdlen]
		off += rdlen
		recs = append(recs, r)
	}
	return recs, off, nil
}

// decodeName parses a possibly-compressed domain name starting at off and
// returns the name and the number of bytes consumed at off (not counting
// bytes reached via compression pointers).
func decodeName(data []byte, off int) (string, int, error) {
	var parts []string
	consumed := 0
	jumped := false
	pos := off
	for hops := 0; ; hops++ {
		if hops > 64 {
			return "", 0, errf(LayerTypeDNS, "compression loop")
		}
		if pos >= len(data) {
			return "", 0, errf(LayerTypeDNS, "name runs past message")
		}
		l := int(data[pos])
		switch {
		case l == 0:
			if !jumped {
				consumed = pos - off + 1
			}
			return strings.Join(parts, "."), consumed, nil
		case l&0xc0 == 0xc0:
			if pos+1 >= len(data) {
				return "", 0, errf(LayerTypeDNS, "truncated compression pointer")
			}
			if !jumped {
				consumed = pos - off + 2
				jumped = true
			}
			pos = int(binary.BigEndian.Uint16(data[pos:pos+2]) & 0x3fff)
		case l > 63:
			return "", 0, errf(LayerTypeDNS, "label length %d", l)
		default:
			if pos+1+l > len(data) {
				return "", 0, errf(LayerTypeDNS, "truncated label")
			}
			parts = append(parts, string(data[pos+1:pos+1+l]))
			pos += 1 + l
		}
	}
}

// encodeName appends the uncompressed wire form of name to dst.
func encodeName(dst []byte, name string) ([]byte, error) {
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, errf(LayerTypeDNS, "bad label %q in %q", label, name)
			}
			dst = append(dst, byte(len(label)))
			dst = append(dst, label...)
		}
	}
	return append(dst, 0), nil
}

// SerializeTo implements SerializableLayer.
func (d *DNS) SerializeTo(b *Buffer) error {
	out := make([]byte, 12)
	binary.BigEndian.PutUint16(out[0:2], d.ID)
	var f uint16
	if d.QR {
		f |= 0x8000
	}
	f |= uint16(d.Opcode&0xf) << 11
	if d.AA {
		f |= 0x0400
	}
	if d.TC {
		f |= 0x0200
	}
	if d.RD {
		f |= 0x0100
	}
	if d.RA {
		f |= 0x0080
	}
	if d.AD {
		f |= 0x0020
	}
	f |= uint16(d.Rcode & 0xf)
	binary.BigEndian.PutUint16(out[2:4], f)
	binary.BigEndian.PutUint16(out[4:6], uint16(len(d.Questions)))
	binary.BigEndian.PutUint16(out[6:8], uint16(len(d.Answers)))
	binary.BigEndian.PutUint16(out[8:10], uint16(len(d.Authorities)))
	binary.BigEndian.PutUint16(out[10:12], uint16(len(d.Additionals)))

	var err error
	for _, q := range d.Questions {
		if out, err = encodeName(out, q.Name); err != nil {
			return err
		}
		out = binary.BigEndian.AppendUint16(out, q.Type)
		out = binary.BigEndian.AppendUint16(out, q.Class)
	}
	for _, sec := range [][]DNSRecord{d.Answers, d.Authorities, d.Additionals} {
		for _, r := range sec {
			if out, err = encodeName(out, r.Name); err != nil {
				return err
			}
			out = binary.BigEndian.AppendUint16(out, r.Type)
			out = binary.BigEndian.AppendUint16(out, r.Class)
			out = binary.BigEndian.AppendUint32(out, r.TTL)
			out = binary.BigEndian.AppendUint16(out, uint16(len(r.Data)))
			out = append(out, r.Data...)
		}
	}
	b.PushBytes(out)
	return nil
}
