package packet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
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

// DecodeFromBytes implements DecodingLayer. Every field is reset, and the
// Headers array is reused, so one HTTP can decode message after message.
// The header block is copied into one string that all the string fields
// share: they must not alias data, which the caller may reuse while a
// field (a Host kept in an alert, say) lives on.
func (h *HTTP) DecodeFromBytes(data []byte) error {
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

// SerializeTo implements SerializableLayer.
func (h *HTTP) SerializeTo(b *Buffer) error {
	var sb strings.Builder
	if h.IsRequest {
		proto := h.Proto
		if proto == "" {
			proto = "HTTP/1.1"
		}
		fmt.Fprintf(&sb, "%s %s %s\r\n", h.Method, h.Path, proto)
	} else {
		proto := h.Proto
		if proto == "" {
			proto = "HTTP/1.1"
		}
		fmt.Fprintf(&sb, "%s %d %s\r\n", proto, h.StatusCode, h.StatusText)
	}
	for _, hd := range h.Headers {
		fmt.Fprintf(&sb, "%s: %s\r\n", hd.Name, hd.Value)
	}
	sb.WriteString("\r\n")
	out := append([]byte(sb.String()), h.Body...)
	b.PushBytes(out)
	return nil
}
