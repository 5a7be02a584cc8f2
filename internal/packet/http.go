package packet

import (
	"bytes"
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// HTTP is a parsed HTTP/1.x message (request or response). It is
// intentionally tolerant: middleboxes see individual segments, so a
// message may carry a partial body.
type HTTP struct {
	IsRequest bool

	// Request fields.
	Method, Path, Proto string
	// Response fields.
	StatusCode int
	StatusText string

	// Headers preserves receipt order; header names are canonicalized to
	// lower case for lookup via Header().
	Headers []HTTPHeader
	Body    []byte
}

// HTTPHeader is one header line.
type HTTPHeader struct {
	Name, Value string
}

// LayerType implements Layer.
func (*HTTP) LayerType() LayerType { return LayerTypeHTTP }

// LayerPayload implements Layer.
func (h *HTTP) LayerPayload() []byte { return h.Body }

// NextLayerType implements DecodingLayer.
func (*HTTP) NextLayerType() LayerType { return LayerTypeInvalid }

// Header returns the value of the named header (case-insensitive), or "".
func (h *HTTP) Header(name string) string {
	for _, hd := range h.Headers {
		if strings.EqualFold(hd.Name, name) {
			return hd.Value
		}
	}
	return ""
}

// SetHeader replaces the named header or appends it if absent.
func (h *HTTP) SetHeader(name, value string) {
	for i, hd := range h.Headers {
		if strings.EqualFold(hd.Name, name) {
			h.Headers[i].Value = value
			return
		}
	}
	h.Headers = append(h.Headers, HTTPHeader{Name: name, Value: value})
}

// Host returns the request host (Host header).
func (h *HTTP) Host() string { return h.Header("Host") }

// DecodeFromBytes implements DecodingLayer: HTTPView.Parse, then one
// copy of the header block into a string that every string field is a
// substring of. Every field is reset, and the Headers array is reused,
// so one HTTP can decode message after message. The fields must not
// alias data, which the caller may reuse while a field (a Host kept in an
// alert, say) lives on; Body does alias it, as every layer's payload does.
func (h *HTTP) DecodeFromBytes(data []byte) error {
	v := viewPool.Get().(*HTTPView)
	err := v.Parse(data)
	*h = HTTP{Headers: h.Headers[:0]}
	if err == nil {
		head := string(data[:len(data)-len(v.Body)])
		str := func(b []byte) string { return substr(head, data, b) }
		h.IsRequest, h.StatusCode, h.Body = v.IsRequest, v.StatusCode, v.Body
		h.Method, h.Path, h.Proto, h.StatusText = str(v.Method), str(v.Path), str(v.Proto), str(v.StatusText)
		for _, hd := range v.Headers {
			h.Headers = append(h.Headers, HTTPHeader{Name: str(hd.Name), Value: str(hd.Value)})
		}
	}
	viewPool.Put(v)
	return err
}

// viewPool lends DecodeFromBytes the view it parses into, so an HTTP
// carries no parse scratch of its own.
var viewPool = sync.Pool{New: func() any { return new(HTTPView) }}

// substr returns the part of s, a copy of data's first len(s) bytes, that
// b covers. b is a subslice of data ending within s, so its offset in data
// is how much capacity it lacks.
func substr(s string, data, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	off := cap(data) - cap(b)
	return s[off : off+len(b)]
}

// HTTPView is an HTTP/1.x message parsed in place: every field is a
// subslice of the bytes it was parsed from, so a parse copies nothing and,
// once Headers has grown, allocates nothing. It is the one HTTP grammar;
// HTTP is a view plus a string copy of the header block. A view is valid
// only while its bytes are: whoever keeps a field past them copies it.
type HTTPView struct {
	IsRequest bool

	// Request fields.
	Method, Path, Proto []byte
	// Response fields (Proto too).
	StatusCode int
	StatusText []byte

	// Headers preserves receipt order; the array is reused by the next
	// Parse.
	Headers []HTTPHeaderView
	// Body is what follows the blank line, or nil when the message has
	// none (a header-only fragment).
	Body []byte
}

// HTTPHeaderView is one header line of an HTTPView.
type HTTPHeaderView struct {
	Name, Value []byte
}

var crlf = []byte("\r\n")

// Parse parses data into v, resetting every field. It is tolerant as a
// middlebox must be, seeing single segments: the header block ends at
// the first blank line or at the end of data. It walks data once,
// line by line, and refuses a message with no start line, a start line
// of fewer than three space-separated fields, a request whose third
// field is not an HTTP version, a response whose status is not a
// number, or a header line without a colon. Names and values are
// trimmed of surrounding white space.
func (v *HTTPView) Parse(data []byte) error {
	*v = HTTPView{Headers: v.Headers[:0]}
	start, rest, more := bytes.Cut(data, crlf)
	if len(start) == 0 {
		return errf(LayerTypeHTTP, "empty message")
	}
	f0, r0, ok0 := bytes.Cut(start, []byte(" "))
	f1, f2, ok1 := bytes.Cut(r0, []byte(" "))
	if !ok0 || !ok1 {
		return errf(LayerTypeHTTP, "malformed start line %q", start)
	}
	if bytes.HasPrefix(f0, []byte("HTTP/")) {
		code, err := strconv.Atoi(string(f1))
		if err != nil {
			return errf(LayerTypeHTTP, "bad status code %q", f1)
		}
		v.Proto, v.StatusCode, v.StatusText = f0, code, f2
	} else {
		if !bytes.HasPrefix(f2, []byte("HTTP/")) {
			return errf(LayerTypeHTTP, "not an HTTP start line %q", start)
		}
		v.IsRequest, v.Method, v.Path, v.Proto = true, f0, f1, f2
	}
	for more {
		var line []byte
		line, rest, more = bytes.Cut(rest, crlf)
		if len(line) == 0 {
			if more { // the blank line
				v.Body = rest
				return nil
			}
			break // data ends with the last header's CRLF
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return errf(LayerTypeHTTP, "malformed header %q", line)
		}
		if v.Headers == nil {
			v.Headers = make([]HTTPHeaderView, 0, 8)
		}
		v.Headers = append(v.Headers, HTTPHeaderView{Name: bytes.TrimSpace(name), Value: bytes.TrimSpace(value)})
	}
	return nil
}

// Header returns the value of the named header, matched as
// strings.EqualFold matches (so "Hoſt" is a Host header), or nil.
func (v *HTTPView) Header(name string) []byte {
	for _, hd := range v.Headers {
		// Case folding maps a rune to one at most three times as long
		// in UTF-8 ('k' and the Kelvin sign), so a longer name cannot
		// match, and the conversion of one that can stays on the stack.
		if len(hd.Name) <= 3*len(name) && strings.EqualFold(string(hd.Name), name) {
			return hd.Value
		}
	}
	return nil
}

// Host returns the request host (Host header), or nil.
func (v *HTTPView) Host() []byte { return v.Header("Host") }

// Poison overwrites what the last Parse left in v: every header name and
// value becomes a marker, and every other field is zeroed; only the
// header array's capacity survives for reuse. See Decoder.Poison.
func (v *HTTPView) Poison() {
	hs := v.Headers[:cap(v.Headers)]
	for i := range hs {
		hs[i] = HTTPHeaderView{Name: poisonBytes, Value: poisonBytes}
	}
	*v = HTTPView{Headers: hs[:0]}
}

// SerializeTo implements SerializableLayer.
func (h *HTTP) SerializeTo(b *Buffer) error {
	var sb strings.Builder
	proto := cmp.Or(h.Proto, "HTTP/1.1")
	if h.IsRequest {
		fmt.Fprintf(&sb, "%s %s %s\r\n", h.Method, h.Path, proto)
	} else {
		fmt.Fprintf(&sb, "%s %d %s\r\n", proto, h.StatusCode, h.StatusText)
	}
	for _, hd := range h.Headers {
		fmt.Fprintf(&sb, "%s: %s\r\n", hd.Name, hd.Value)
	}
	sb.WriteString("\r\n")
	b.PushBytes(append([]byte(sb.String()), h.Body...))
	return nil
}
