package packet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// frameSeeds is the packet corpus: real frames of each shape, plus
// malformed headers, so even the minimum corpus exercises the decoder's
// bounds checks rather than only the happy paths.
func frameSeeds() [][]byte {
	ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}
	tcp := &TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	frame, _ := SerializeToBytes(&Ethernet{Src: srcM, Dst: dstM, EtherType: EtherTypeIPv4}, ip, tcp, Payload("x"))
	udpFrame, _ := SerializeToBytes(&IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoUDP},
		&UDP{SrcPort: 53, DstPort: 53}, Payload("y"))
	seeds := [][]byte{frame, udpFrame, {}, {0x45}}
	if len(udpFrame) > 0 {
		badIHL := append([]byte(nil), udpFrame...)
		badIHL[0] = 0x4f // IHL=15: 60-byte header claimed, frame is shorter
		tinyIHL := append([]byte(nil), udpFrame...)
		tinyIHL[0] = 0x42 // IHL=2: below the minimum 5
		seeds = append(seeds, badIHL, tinyIHL)
	}
	ipOnly, _ := SerializeToBytes(ip, tcp, Payload("x"))
	if len(ipOnly) > 24 {
		seeds = append(seeds, ipOnly[:24]) // TCP header truncated mid-way
	}
	frag := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP, Flags: 1 /* MF */, FragOff: 8}
	fragFrame, _ := SerializeToBytes(frag, Payload("fragment tail bytes"))
	// IHL=6: a 24-byte header carrying one 4-byte option (record-route
	// shape), followed by a UDP header. Checksum is wrong on purpose —
	// the rejection path is a path too.
	return append(seeds, fragFrame, []byte{
		0x46, 0, 0, 32, 0, 0, 0, 0, 64, 17, 0, 0,
		10, 0, 0, 5, 93, 184, 216, 34, // src, dst
		7, 4, 0, 0, // record-route option
		0, 53, 0, 53, 0, 8, 0, 0, // UDP header
	})
}

// dnsSeeds is the DNS corpus: a query, and a compression pointer to
// offset 12.
func dnsSeeds() [][]byte {
	good, _ := SerializeToBytes(&DNS{ID: 1, RD: true,
		Questions: []DNSQuestion{{Name: "www.example.com", Type: DNSTypeA, Class: DNSClassIN}}})
	return [][]byte{good, {0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0, 0xc0, 12}, {}}
}

// tlsSeeds is the TLS corpus: a ClientHello record and an empty one.
func tlsSeeds() [][]byte {
	data, _ := SerializeToBytes(&TLS{Records: []TLSRecord{BuildClientHello("h.example", [32]byte{}, []uint16{1})}})
	return [][]byte{data, {22, 3, 3, 0, 0}}
}

// httpSeeds is the HTTP corpus.
func httpSeeds() [][]byte {
	return [][]byte{[]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\nbody"), []byte("HTTP/1.1 200 OK\r\n\r\n"), []byte("")}
}

// FuzzDecode: the full-stack decoder must never panic on arbitrary
// bytes, and whatever it decodes must re-serialize without corruption of
// invariants.
func FuzzDecode(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, first := range []LayerType{LayerTypeEthernet, LayerTypeIPv4, LayerTypeTCP, LayerTypeUDP} {
			p := Decode(data, first)
			_ = p.String()
			if ip := p.IPv4(); ip != nil {
				// A decoded IPv4 header passed its checksum; its
				// payload must sit inside the input.
				if len(ip.LayerPayload()) > len(data) {
					t.Fatal("payload larger than input")
				}
			}
		}
	})
}

// FuzzDNSDecode: the DNS wire parser (with name compression) must never
// panic or loop, and successful decodes must re-encode.
func FuzzDNSDecode(f *testing.F) {
	for _, s := range dnsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d DNS
		if err := d.DecodeFromBytes(data); err != nil {
			return
		}
		// Re-encoding may legitimately fail (e.g. names decoded from
		// pointers may contain empty labels we refuse to emit), but it
		// must not panic.
		_, _ = SerializeToBytes(&d)
	})
}

// FuzzTLSDecode: record parsing and handshake extraction on arbitrary
// input.
func FuzzTLSDecode(f *testing.F) {
	for _, s := range tlsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl TLS
		if err := tl.DecodeFromBytes(data); err != nil {
			return
		}
		for _, r := range tl.Records {
			hss, err := r.Handshakes()
			if err != nil {
				continue
			}
			for _, hs := range hss {
				switch hs.Type {
				case TLSHandshakeClientHello:
					_, _ = ParseClientHello(hs.Body)
				case TLSHandshakeCertificate:
					_, _ = ParseCertificateChain(hs.Body)
				}
			}
		}
	})
}

// FuzzHTTPDecode: the HTTP/1.x parser on arbitrary text.
func FuzzHTTPDecode(f *testing.F) {
	for _, s := range httpSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h HTTP
		if err := h.DecodeFromBytes(data); err != nil {
			return
		}
		// A successful parse must serialize.
		if _, err := SerializeToBytes(&h); err != nil {
			t.Fatalf("parsed message failed to serialize: %v", err)
		}
	})
}

// refDecodeHTTP is HTTP.DecodeFromBytes as it was before HTTPView, kept
// verbatim (two passes over strings, after one copy of the header block)
// so FuzzHTTPView compares the view against the behaviour, not against a
// port of it.
func refDecodeHTTP(h *HTTP, data []byte) error {
	*h = HTTP{Headers: h.Headers[:0]}
	head, body, _ := bytes.Cut(data, []byte("\r\n\r\n")) // no blank line: a header-only fragment
	startLine, rest, more := strings.Cut(string(head), "\r\n")
	if startLine == "" {
		return errf(LayerTypeHTTP, "empty message")
	}
	f0, r0, ok0 := strings.Cut(startLine, " ")
	f1, f2, ok1 := strings.Cut(r0, " ")
	if !ok0 || !ok1 {
		return errf(LayerTypeHTTP, "malformed start line %q", startLine)
	}
	if strings.HasPrefix(f0, "HTTP/") {
		h.Proto = f0
		code, err := strconv.Atoi(f1)
		if err != nil {
			return errf(LayerTypeHTTP, "bad status code %q", f1)
		}
		h.StatusCode = code
		h.StatusText = f2
	} else {
		if !strings.HasPrefix(f2, "HTTP/") {
			return errf(LayerTypeHTTP, "not an HTTP start line %q", startLine)
		}
		h.IsRequest = true
		h.Method = f0
		h.Path = f1
		h.Proto = f2
	}
	for more {
		var line string
		line, rest, more = strings.Cut(rest, "\r\n")
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return errf(LayerTypeHTTP, "malformed header %q", line)
		}
		h.Headers = append(h.Headers, HTTPHeader{
			Name:  strings.TrimSpace(name),
			Value: strings.TrimSpace(value),
		})
	}
	h.Body = body
	return nil
}

// viewSeeds are the HTTP corpus plus the edges of the one-pass line walk:
// where the blank line falls, stray CRs, a CRLF that ends the data, empty
// and space-only values, Unicode white space and case folding in header
// names, and every refusal.
func viewSeeds() [][]byte {
	seeds := httpSeeds()
	for _, s := range []string{
		"GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\n",
		"GET / HTTP/1.1\r\nHost: h\r\n",
		"GET / HTTP/1.1\r\r\n\r\n\r\nbody\r\n\r\n",
		"GET / HTTP/1.1\r\nA: b\r\r\nC:\r\nD:   \r\n\r\n",
		"\r\nGET / HTTP/1.1\r\n\r\n",
		"\r\n\r\nbody",
		"GET  HTTP/1.1 x\r\n",
		"POST /a%20b HTTP/1.0\r\nHoſt: ſite\r\n\u00a0X-Y\u2003:\u0085 z \r\n\r\nk=v",
		"HTTP/1.1 +200 OK\r\n\r\n",
		"HTTP/1.1 0099 \r\n\r\n",
		"HTTP/1.1 99999999999999999999 Big\r\n\r\n",
		"HTTP/1.1 200\r\n\r\n",
		"GET / FTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nno colon\r\n\r\n",
		"GET / HTTP/1.1\r\n: empty name\r\nhOsT:\tH.example \r\n\r\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzHTTPView is the differential for the one HTTP grammar: on any
// input, HTTPView.Parse accepts or refuses what the old string parser
// did, with the same error, and an accepted view is the old parse field
// by field (Body's nil-ness included), with every field a subslice of
// the input and Header matching as the old Header did. HTTP, which is now
// built on the view, must match the reference too. The view is reused
// across the two inputs, so a field of the first must not show in the
// second.
func FuzzHTTPView(f *testing.F) {
	seeds := viewSeeds()
	for i, s := range seeds {
		f.Add(seeds[(i+1)%len(seeds)], s)
	}
	f.Fuzz(func(t *testing.T, prev, data []byte) {
		var v HTTPView
		var h HTTP
		_, _ = v.Parse(prev), h.DecodeFromBytes(prev)
		var ref HTTP
		refErr := refDecodeHTTP(&ref, data)
		err, herr := v.Parse(data), h.DecodeFromBytes(data)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || fmt.Sprint(herr) != fmt.Sprint(refErr) {
			t.Fatalf("%q: view error %v, HTTP error %v, want %v", data, err, herr, refErr)
		}
		if refErr != nil {
			return
		}
		within := func(field string, b []byte) {
			if len(b) > 0 && (cap(b) > cap(data) || &data[cap(data)-cap(b)] != &b[0]) {
				t.Fatalf("%q: %s is not a subslice of the input", data, field)
			}
		}
		got := HTTP{IsRequest: v.IsRequest, Method: string(v.Method), Path: string(v.Path), Proto: string(v.Proto),
			StatusCode: v.StatusCode, StatusText: string(v.StatusText), Body: v.Body}
		for _, b := range [][]byte{v.Method, v.Path, v.Proto, v.StatusText, v.Body} {
			within("a start-line field or the body", b)
		}
		for _, hd := range v.Headers {
			within("a header", hd.Name)
			within("a header", hd.Value)
			got.Headers = append(got.Headers, HTTPHeader{Name: string(hd.Name), Value: string(hd.Value)})
		}
		for name, parse := range map[string]*HTTP{"view": &got, "HTTP": &h} {
			if d, w := httpFields(parse), httpFields(&ref); d != w {
				t.Fatalf("%q: %s differs from the reference\n got %s\nwant %s", data, name, d, w)
			}
		}
		for _, hd := range append(ref.Headers, HTTPHeader{Name: "Host"}, HTTPHeader{Name: "content-length"}) {
			if g, w := v.Header(hd.Name), ref.Header(hd.Name); string(g) != w {
				t.Fatalf("%q: Header(%q) = %q, want %q", data, hd.Name, g, w)
			}
		}
	})
}

// httpFields renders an HTTP's exported fields, Body's nil-ness included.
func httpFields(h *HTTP) string {
	return fmt.Sprintf("req=%t %q %q %q %d %q headers=%q body=%q nil=%t",
		h.IsRequest, h.Method, h.Path, h.Proto, h.StatusCode, h.StatusText, h.Headers, h.Body, h.Body == nil)
}

// A FuzzDecoderReuse mode word packs one 4-bit step per input: the
// first layer's offset from Ethernet (Ethernet..Payload) in the low three
// bits, and 8 for a header-only decode.
func reuseStep(first LayerType, headers bool) uint16 {
	s := uint16(first - LayerTypeEthernet)
	if headers {
		s |= 8
	}
	return s
}

// reuseMode packs three steps.
func reuseMode(a, b, c uint16) uint16 { return a | b<<4 | c<<8 }

// FuzzDecoderReuse is the differential for the reusable Decoder: one
// Decoder decodes inputs a, b and c in turn, each at the first layer and
// depth its step of mode selects, and after every step the result must
// equal, field by field, what a fresh decode of the same input gives
// (Decode, or a new Decoder's DecodeHeaders). Whatever one packet leaves
// in the reused layer structs must not show through the next.
func FuzzDecoderReuse(f *testing.F) {
	tcpTo := func(port uint16, msg []byte) []byte {
		ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoTCP}
		tcp := &TCP{SrcPort: 40000, DstPort: port}
		tcp.SetNetworkLayerForChecksum(ip)
		out, _ := SerializeToBytes(ip, tcp, Payload(msg))
		return out
	}
	udpTo := func(port uint16, msg []byte) []byte {
		ip := &IPv4{Src: srcIP, Dst: dstIP, Protocol: IPProtoUDP}
		udp := &UDP{SrcPort: 5353, DstPort: port}
		udp.SetNetworkLayerForChecksum(ip)
		out, _ := SerializeToBytes(ip, udp, Payload(msg))
		return out
	}
	full := func(t LayerType) uint16 { return reuseStep(t, false) }
	hdrs := func(t LayerType) uint16 { return reuseStep(t, true) }
	ipv4 := full(LayerTypeIPv4)

	// The existing corpora, each after and before a shape of another kind.
	apps := []struct {
		t     LayerType
		seeds [][]byte
	}{{LayerTypeHTTP, httpSeeds()}, {LayerTypeTLS, tlsSeeds()}, {LayerTypeDNS, dnsSeeds()}}
	frames := frameSeeds()
	for i, fr := range frames {
		next := frames[(i+1)%len(frames)]
		f.Add(fr, next, fr, reuseMode(full(LayerTypeEthernet), ipv4, hdrs(LayerTypeIPv4)))
		f.Add(fr, next, fr, reuseMode(ipv4, hdrs(LayerTypeEthernet), full(LayerTypeUDP)))
	}
	for k, a := range apps {
		b := apps[(k+1)%len(apps)]
		for i, s := range a.seeds {
			f.Add(s, b.seeds[i%len(b.seeds)], s, reuseMode(full(a.t), full(b.t), full(a.t)))
		}
	}

	// A request then a response then a request, bare and in frames: the
	// request's Method/Path must not survive into the response, nor the
	// response's status into the next request.
	req := []byte("POST /login?u=alice HTTP/1.1\r\nHost: a.example\r\nCookie: k=v\r\nX-Long: " +
		strings.Repeat("v", 40) + "\r\n\r\npassword=hunter2")
	resp := []byte("HTTP/1.1 404 Not Found\r\nServer: s\r\n\r\n")
	get := []byte("GET / HTTP/1.1\r\n\r\n")
	http := full(LayerTypeHTTP)
	f.Add(req, resp, get, reuseMode(http, http, http))
	f.Add(resp, req, resp, reuseMode(http, http, http))
	f.Add(tcpTo(80, req), tcpTo(80, resp), tcpTo(8080, get), reuseMode(ipv4, ipv4, ipv4))
	// HTTP, then TLS, then DNS, as frames through the port guesses.
	tls, dns := tlsSeeds()[0], dnsSeeds()[0]
	f.Add(tcpTo(80, req), tcpTo(443, tls), udpTo(53, dns), reuseMode(ipv4, ipv4, ipv4))
	f.Add(udpTo(53, dns), tcpTo(443, tls), tcpTo(80, resp), reuseMode(ipv4, ipv4, ipv4))
	// A full decode, then a header-only one and a truncated frame.
	f.Add(tcpTo(80, req), tcpTo(443, tls), tcpTo(80, req)[:30], reuseMode(ipv4, hdrs(LayerTypeIPv4), ipv4))

	f.Fuzz(func(t *testing.T, a, b, c []byte, mode uint16) {
		var d Decoder
		for i, data := range [][]byte{a, b, c} {
			step := mode >> (4 * i)
			first, headers := LayerTypeEthernet+LayerType(step&7), step&8 != 0
			var got, want *Packet
			if headers {
				got, want = d.DecodeHeaders(data, first), new(Decoder).DecodeHeaders(data, first)
			} else {
				got, want = d.Decode(data, first), Decode(data, first)
			}
			if g, w := describe(got), describe(want); g != w {
				t.Fatalf("step %d (%v, headers=%t): the reused decoder differs from a fresh one\n got %s\nwant %s", i, first, headers, g, w)
			}
		}
	})
}

// describe renders every field of every layer of p, unexported ones
// included; a transport layer's checksum binding is rendered as what it
// points at, since the two decodes' IPv4 structs sit at different
// addresses.
func describe(p *Packet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "data=%q err=%v", p.Data(), p.errLayer)
	binding := func(ip *IPv4) string {
		switch {
		case ip == nil:
			return "unbound"
		case ip == p.IPv4():
			return "this packet's IPv4"
		}
		return fmt.Sprintf("a stale IPv4 %+v", *ip)
	}
	for i, l := range p.layers {
		switch l := l.(type) {
		case *TCP:
			c := *l
			c.ipForChecksum = nil
			fmt.Fprintf(&b, "\n%d %T %+v checksum=%s", i, l, c, binding(l.ipForChecksum))
		case *UDP:
			c := *l
			c.ipForChecksum = nil
			fmt.Fprintf(&b, "\n%d %T %+v checksum=%s", i, l, c, binding(l.ipForChecksum))
		default:
			fmt.Fprintf(&b, "\n%d %T %+v", i, l, l)
		}
	}
	return b.String()
}
