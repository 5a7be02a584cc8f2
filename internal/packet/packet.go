package packet

import (
	"fmt"
	"strings"
)

// Payload is a raw application payload layer.
type Payload []byte

// LayerType implements Layer.
func (Payload) LayerType() LayerType { return LayerTypePayload }

// LayerPayload implements Layer.
func (p Payload) LayerPayload() []byte { return p }

// NextLayerType implements DecodingLayer.
func (Payload) NextLayerType() LayerType { return LayerTypeInvalid }

// DecodeFromBytes implements DecodingLayer.
func (p *Payload) DecodeFromBytes(data []byte) error {
	*p = data
	return nil
}

// SerializeTo implements SerializableLayer.
func (p Payload) SerializeTo(b *Buffer) error {
	b.PushBytes(p)
	return nil
}

// Packet is a decoded stack of layers over a single buffer.
type Packet struct {
	data   []byte
	layers []Layer
	// truncated records that decoding stopped early; ErrLayer explains
	// why.
	errLayer error
}

// Decode parses data starting at the given first layer. Decoding continues
// until a layer reports LayerTypePayload/Invalid or a parse error occurs;
// a parse error is recorded (ErrLayer) rather than failing the whole
// packet, matching gopacket behaviour where outer layers stay usable.
func Decode(data []byte, first LayerType) *Packet {
	p := &Packet{data: data}
	cur := data
	next := first
	var lastIP *IPv4 // pseudo-header source for transport checksums
	for len(cur) > 0 && next != LayerTypeInvalid {
		var dl DecodingLayer
		switch next {
		case LayerTypeEthernet:
			dl = &Ethernet{}
		case LayerTypeIPv4:
			dl = &IPv4{}
		case LayerTypeTCP:
			dl = &TCP{}
		case LayerTypeUDP:
			dl = &UDP{}
		case LayerTypeDNS:
			dl = &DNS{}
		case LayerTypeTLS:
			dl = &TLS{}
		case LayerTypeHTTP:
			dl = &HTTP{}
		default:
			pl := Payload(nil)
			dl = &pl
		}
		if err := dl.DecodeFromBytes(cur); err != nil {
			p.errLayer = err
			// Keep the undecodable remainder accessible as payload.
			p.layers = append(p.layers, Payload(cur))
			return p
		}
		// *Payload stores by pointer; append the value for uniform
		// Layer access.
		if pl, ok := dl.(*Payload); ok {
			p.layers = append(p.layers, *pl)
			return p
		}
		p.layers = append(p.layers, dl)
		// Bind checksums so VerifyChecksum works out of the box.
		switch l := dl.(type) {
		case *IPv4:
			lastIP = l
		case *TCP:
			if lastIP != nil {
				l.SetNetworkLayerForChecksum(lastIP)
			}
		case *UDP:
			if lastIP != nil {
				l.SetNetworkLayerForChecksum(lastIP)
			}
		}
		next = dl.NextLayerType()
		cur = dl.LayerPayload()
	}
	return p
}

// Data returns the raw bytes the packet was decoded from.
func (p *Packet) Data() []byte { return p.data }

// ErrLayer returns the decode error that stopped parsing, or nil.
func (p *Packet) ErrLayer() error { return p.errLayer }

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Ethernet returns the Ethernet layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if l := p.Layer(LayerTypeEthernet); l != nil {
		return l.(*Ethernet)
	}
	return nil
}

// IPv4 returns the IPv4 layer, or nil.
func (p *Packet) IPv4() *IPv4 {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4)
	}
	return nil
}

// TCP returns the TCP layer, or nil.
func (p *Packet) TCP() *TCP {
	if l := p.Layer(LayerTypeTCP); l != nil {
		return l.(*TCP)
	}
	return nil
}

// UDP returns the UDP layer, or nil.
func (p *Packet) UDP() *UDP {
	if l := p.Layer(LayerTypeUDP); l != nil {
		return l.(*UDP)
	}
	return nil
}

// DNS returns the DNS layer, or nil.
func (p *Packet) DNS() *DNS {
	if l := p.Layer(LayerTypeDNS); l != nil {
		return l.(*DNS)
	}
	return nil
}

// TLS returns the TLS layer, or nil.
func (p *Packet) TLS() *TLS {
	if l := p.Layer(LayerTypeTLS); l != nil {
		return l.(*TLS)
	}
	return nil
}

// HTTP returns the HTTP layer, or nil.
func (p *Packet) HTTP() *HTTP {
	if l := p.Layer(LayerTypeHTTP); l != nil {
		return l.(*HTTP)
	}
	return nil
}

// ApplicationPayload returns the innermost payload bytes: the application
// data carried above the transport layer, or nil.
func (p *Packet) ApplicationPayload() []byte {
	if len(p.layers) == 0 {
		return nil
	}
	return p.layers[len(p.layers)-1].LayerPayload()
}

// String renders the layer stack for debugging, e.g.
// "Ethernet/IPv4/TCP/HTTP".
func (p *Packet) String() string {
	names := make([]string, len(p.layers))
	for i, l := range p.layers {
		names[i] = l.LayerType().String()
	}
	s := strings.Join(names, "/")
	if p.errLayer != nil {
		s += fmt.Sprintf(" (decode stopped: %v)", p.errLayer)
	}
	return s
}
