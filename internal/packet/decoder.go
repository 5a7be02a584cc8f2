package packet

// Decoder is a reusable decoder for per-packet hot paths. Where Decode
// allocates a fresh Decoder per call, a long-lived Decoder owns one
// instance of each layer and re-parses into them, so steady-state header
// decoding performs zero heap allocations and a full decode of an HTTP
// packet allocates only the string its header block is copied into
// (ClickOS-class per-packet budgets, paper §3.3, leave no room for a
// malloc per layer). A caller that only reads an HTTP message, and keeps
// none of it, parses the transport payload into an HTTPView instead and
// allocates nothing.
//
// The trade-off is aliasing: the *Packet a Decoder returns and every
// layer it exposes, including slices such as HTTP.Headers, are views into
// the Decoder, valid only until its next decode (or Poison). Callers that
// need the decoded form to outlive the next packet must use Decode.
//
// A Decoder is not goroutine-safe; give each worker goroutine its own.
type Decoder struct {
	pkt     Packet
	eth     Ethernet
	ip      IPv4
	tcp     TCP
	udp     UDP
	dns     DNS
	tls     TLS
	http    HTTP
	payload Payload
	// layers is the backing array for pkt.layers: link + network +
	// transport + application (or the undecodable remainder) is the
	// deepest stack a decode builds.
	layers [4]Layer
}

// Decode parses data starting at the given first layer. Decoding continues
// until a layer reports LayerTypePayload/Invalid or a parse error occurs;
// a parse error is recorded (Packet.String reports it) rather than
// failing the whole packet, matching gopacket behaviour where outer
// layers stay usable, and the undecodable remainder is kept as a Payload
// layer.
func Decode(data []byte, first LayerType) *Packet {
	return new(Decoder).decode(data, first, true)
}

// Decode is the package-level Decode into the decoder's reusable layers:
// the same layers, parse error and Payload remainder, as a view valid until
// the decoder's next use.
func (d *Decoder) Decode(data []byte, first LayerType) *Packet {
	return d.decode(data, first, true)
}

// DecodeHeaders parses the link/network/transport headers of data into
// the decoder's reusable layer structs and returns a packet view over
// them. Unlike Decode it never descends into application layers
// (DNS/TLS/HTTP/Payload): decoding stops after TCP/UDP, whose
// LayerPayload still exposes the application bytes, and a parse error is
// recorded without a Payload remainder. The outer layers stay
// usable.
func (d *Decoder) DecodeHeaders(data []byte, first LayerType) *Packet {
	return d.decode(data, first, false)
}

// decode is the one decode loop; full selects the depth: application
// layers and the Payload remainder, or headers only.
func (d *Decoder) decode(data []byte, first LayerType, full bool) *Packet {
	d.pkt = Packet{data: data, layers: d.layers[:0]}
	cur := data
	next := first
	// ip is the IPv4 header transport checksums bind to: one decoded in
	// THIS call, never a stale one from the previous packet.
	var ip *IPv4
	for len(cur) > 0 && next != LayerTypeInvalid {
		var dl DecodingLayer
		switch next {
		case LayerTypeEthernet:
			dl = &d.eth
		case LayerTypeIPv4:
			dl = &d.ip
		case LayerTypeTCP:
			dl = &d.tcp
		case LayerTypeUDP:
			dl = &d.udp
		default:
			if !full {
				// Application layer (or unknown): headers are done.
				return &d.pkt
			}
			dl = d.application(next)
		}
		if err := dl.DecodeFromBytes(cur); err != nil {
			d.pkt.errLayer = err
			if full {
				// Keep the undecodable remainder accessible as payload.
				d.payload = cur
				d.pkt.layers = append(d.pkt.layers, &d.payload)
			}
			return &d.pkt
		}
		d.pkt.layers = append(d.pkt.layers, dl)
		// Bind checksums so VerifyChecksum works out of the box.
		switch l := dl.(type) {
		case *IPv4:
			ip = l
		case *TCP:
			l.SetNetworkLayerForChecksum(ip)
		case *UDP:
			l.SetNetworkLayerForChecksum(ip)
		}
		next = dl.NextLayerType()
		cur = dl.LayerPayload()
	}
	return &d.pkt
}

// application returns the decoder's layer for an application layer type;
// anything unknown is raw payload.
func (d *Decoder) application(t LayerType) DecodingLayer {
	switch t {
	case LayerTypeDNS:
		return &d.dns
	case LayerTypeTLS:
		return &d.tls
	case LayerTypeHTTP:
		return &d.http
	}
	return &d.payload
}

// poisonText is what Poison writes over every header name and value.
const poisonText = "\x00poisoned: a decoder view outlived its decode\x00"

var poisonBytes = []byte(poisonText)

// Poison overwrites what the last decode left in d: HTTP header names and
// values become a marker string, and every layer struct, DNS entry and
// TLS record is zeroed; only slice capacity survives for reuse. A caller
// that lends out views and takes them back calls it so that a view kept
// past its lifetime reads garbage rather than a plausible later packet.
func (d *Decoder) Poison() {
	hs := d.http.Headers[:cap(d.http.Headers)]
	for i := range hs {
		hs[i] = HTTPHeader{Name: poisonText, Value: poisonText}
	}
	qs := d.dns.Questions[:cap(d.dns.Questions)]
	clear(qs)
	for _, rs := range [][]DNSRecord{d.dns.Answers, d.dns.Authorities, d.dns.Additionals} {
		clear(rs[:cap(rs)])
	}
	recs := d.tls.Records[:cap(d.tls.Records)]
	clear(recs)
	*d = Decoder{http: HTTP{Headers: hs[:0]}, dns: DNS{Questions: qs[:0]}, tls: TLS{Records: recs[:0]}}
}
