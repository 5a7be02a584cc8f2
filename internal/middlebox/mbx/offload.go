package mbx

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// ReplicaSelector implements client-assisted replica selection (§4
// "other applications"): the user's PVN measures candidate replicas of a
// service and rewrites connections aimed at the service's well-known
// address toward the currently-best replica — in-network, per-user, with
// no cooperation from the ISP's DNS.
type ReplicaSelector struct {
	// Service is the anycast/virtual address clients dial.
	Service packet.IPv4Address
	// rtts holds the latest measurement per replica.
	rtts map[packet.IPv4Address]time.Duration

	Rewritten int64
}

// NewReplicaSelector builds a selector for the given service address.
func NewReplicaSelector(service packet.IPv4Address) *ReplicaSelector {
	return &ReplicaSelector{Service: service, rtts: make(map[packet.IPv4Address]time.Duration)}
}

// Name implements middlebox.Box.
func (r *ReplicaSelector) Name() string { return "replica-select" }

// Observe records a replica measurement (fed by the PVN's active
// probes).
func (r *ReplicaSelector) Observe(replica packet.IPv4Address, rtt time.Duration) {
	r.rtts[replica] = rtt
}

// Best returns the lowest-RTT replica, the lowest by address string among
// equals, or ok=false with no data.
func (r *ReplicaSelector) Best() (best packet.IPv4Address, ok bool) {
	bestRTT := time.Duration(1<<62 - 1)
	for k, rtt := range r.rtts {
		if rtt < bestRTT || ok && rtt == bestRTT && k.String() < best.String() {
			best, bestRTT, ok = k, rtt, true
		}
	}
	return best, ok
}

// Process implements middlebox.Box: outbound packets to the service
// address get their destination rewritten to the best replica.
func (r *ReplicaSelector) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	if len(data) < 20 || packet.IPv4Address(data[16:20]) != r.Service {
		return data, middlebox.VerdictPass, nil
	}
	// Reseal makes a corrupted header valid, so only one whose checksum
	// checks out is rewritten.
	best, ok := r.Best()
	if hlen := int(data[0]&0x0f) * 4; !ok || best == r.Service || hlen > len(data) || packet.Checksum(data[:hlen]) != 0 {
		return data, middlebox.VerdictPass, nil
	}
	out := append([]byte(nil), data...)
	copy(out[16:20], best[:])
	if packet.Reseal(out) != nil {
		return data, middlebox.VerdictPass, nil
	}
	r.Rewritten++
	return out, middlebox.VerdictPass, nil
}

// WebRenderer models cloud-assisted page rendering (§4, Opera Mini /
// Amazon Silk [25,33] as PVN modules): HTML responses are "rendered" in
// the network and shipped to the device as a compact text document,
// trading middlebox CPU for last-mile bytes and device work.
type WebRenderer struct {
	// BytesIn/BytesOut account the reduction.
	BytesIn, BytesOut int64
	Rendered          int64
}

// NewWebRenderer builds the renderer.
func NewWebRenderer() *WebRenderer { return &WebRenderer{} }

// Name implements middlebox.Box.
func (w *WebRenderer) Name() string { return "web-render" }

// Process implements middlebox.Box.
func (w *WebRenderer) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	v := ctx.HTTP(data)
	if v == nil || v.IsRequest || len(v.Body) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	if !strings.HasPrefix(strings.ToLower(string(v.Header("Content-Type"))), "text/html") {
		return data, middlebox.VerdictPass, nil
	}
	rendered := renderHTML(string(v.Body))
	if len(rendered) >= len(v.Body) {
		return data, middlebox.VerdictPass, nil
	}
	w.BytesIn += int64(len(v.Body))
	w.BytesOut += int64(len(rendered))
	w.Rendered++

	return rewriteHTTP(data, v, []byte(rendered),
		packet.HTTPHeader{Name: "Content-Type", Value: "text/plain; charset=utf-8"},
		packet.HTTPHeader{Name: "Content-Length", Value: strconv.Itoa(len(rendered))},
		packet.HTTPHeader{Name: "X-PVN-Rendered", Value: "1"}), middlebox.VerdictPass, nil
}

// renderHTML extracts the visible text of an HTML document: tags,
// scripts and styles are dropped, whitespace collapsed — the "partially
// render pages in the cloud" transformation at its simplest.
func renderHTML(html string) string {
	var b strings.Builder
	inTag := false
	skipUntil := "" // closing tag for script/style bodies
	i := 0
	lower := strings.ToLower(html)
	for i < len(html) {
		if skipUntil != "" {
			end := strings.Index(lower[i:], skipUntil)
			if end < 0 {
				break
			}
			i += end + len(skipUntil)
			skipUntil = ""
			continue
		}
		c := html[i]
		switch {
		case c == '<':
			inTag = true
			if strings.HasPrefix(lower[i:], "<script") {
				skipUntil = "</script>"
			} else if strings.HasPrefix(lower[i:], "<style") {
				skipUntil = "</style>"
			}
			i++
		case c == '>':
			inTag = false
			b.WriteByte(' ')
			i++
		case inTag:
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	// Collapse whitespace runs.
	fields := strings.Fields(b.String())
	return strings.Join(fields, " ")
}

// registerOffload adds the offload middleboxes to a runtime. Split out
// of RegisterBuiltins so the cost models stay in one place.
func registerOffload(rt *middlebox.Runtime) {
	rt.Register(&middlebox.Spec{
		Type:       "replica-select",
		Keys:       []string{"service", "replicas"},
		FailPolicy: middlebox.FailOpen, // a broken selector loses a latency win, nothing else
		New: func(cfg map[string]string) (middlebox.Box, error) {
			svc, err := packet.ParseIPv4(cfg["service"])
			if err != nil {
				return nil, fmt.Errorf("replica-select requires cfg[service]=<ip>: %v", err)
			}
			rs := NewReplicaSelector(svc)
			// Static seed measurements may ship in config as
			// "replicas=ip:ms,ip:ms"; live probes call Observe later.
			if reps := cfg["replicas"]; reps != "" {
				for _, pair := range strings.Split(reps, ",") {
					addrStr, msStr, ok := strings.Cut(pair, ":")
					if !ok {
						return nil, fmt.Errorf("bad replica entry %q", pair)
					}
					addr, err := packet.ParseIPv4(addrStr)
					if err != nil {
						return nil, fmt.Errorf("bad replica address %q", addrStr)
					}
					ms, err := strconv.Atoi(msStr)
					if err != nil || ms < 0 {
						return nil, fmt.Errorf("bad replica rtt %q", msStr)
					}
					rs.Observe(addr, time.Duration(ms)*time.Millisecond)
				}
			}
			return rs, nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:           "web-render",
		FailPolicy:     middlebox.FailOpen,
		PerPacketDelay: 800 * time.Microsecond, // rendering is heavy
		MemoryBytes:    48 << 20,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			return NewWebRenderer(), nil
		},
	})
}
