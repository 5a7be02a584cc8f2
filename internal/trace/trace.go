// Package trace generates the synthetic workloads the PVN experiments
// run: web page loads (a page plus embedded objects, some from tracker
// domains), adaptive-bitrate video sessions and PII-leaking app
// traffic. All draws come from an explicit seed so every experiment is
// reproducible; the distributions are chosen to match the qualitative
// mixes the paper's motivation cites (browsers are a minority of
// traffic, video dominates bytes, apps leak PII over plaintext HTTP).
package trace

import (
	"fmt"
	"math"

	"pvn/internal/netsim"
	"pvn/internal/packet"
)

// Object is one fetchable web resource.
type Object struct {
	Host        string
	Path        string
	ContentType string
	Bytes       int
	// Tracker marks third-party tracking/ad objects.
	Tracker bool
}

// WebPage is one page load: the document plus its subresources.
type WebPage struct {
	Objects []Object
}

// TrackerDomains is the canonical blocklist used across experiments.
var TrackerDomains = []string{"ads.example", "tracker.net", "metrics.example"}

// WebGen generates web page loads.
type WebGen struct {
	rng *netsim.RNG
	// TrackerFraction of objects come from tracker domains. Default 0.25.
	TrackerFraction float64
}

// NewWebGen builds a generator.
func NewWebGen(seed uint64) *WebGen {
	return &WebGen{rng: netsim.NewRNG(seed), TrackerFraction: 0.25}
}

// lognormal draws a size with the given median and sigma (log-space).
func lognormal(rng *netsim.RNG, median float64, sigma float64) int {
	v := math.Exp(math.Log(median) + rng.Normal(0, sigma))
	if v < 64 {
		v = 64
	}
	return int(v)
}

// Page draws one page load: an HTML document, 5-40 subresources split
// between text, scripts and images, a fraction served by trackers.
func (g *WebGen) Page(site string) WebPage {
	page := WebPage{}
	page.Objects = append(page.Objects, Object{
		Host: site, Path: "/index.html", ContentType: "text/html",
		Bytes: lognormal(g.rng, 30_000, 0.8),
	})
	n := 5 + g.rng.Intn(36)
	for i := 0; i < n; i++ {
		o := Object{Host: site}
		switch g.rng.Intn(3) {
		case 0:
			o.Path = fmt.Sprintf("/js/app-%d.js", i)
			o.ContentType = "application/javascript"
			o.Bytes = lognormal(g.rng, 40_000, 1.0)
		case 1:
			o.Path = fmt.Sprintf("/img/pic-%d.jpg", i)
			o.ContentType = "image/jpeg"
			o.Bytes = lognormal(g.rng, 80_000, 1.2)
		default:
			o.Path = fmt.Sprintf("/css/style-%d.css", i)
			o.ContentType = "text/css"
			o.Bytes = lognormal(g.rng, 15_000, 0.7)
		}
		if g.rng.Bool(g.TrackerFraction) {
			o.Host = TrackerDomains[g.rng.Intn(len(TrackerDomains))]
			o.Path = "/pixel"
			o.ContentType = "image/gif"
			o.Bytes = 64 + g.rng.Intn(400)
			o.Tracker = true
		}
		page.Objects = append(page.Objects, o)
	}
	return page
}

// Bitrate ladder for ABR video, bits per second. The 1080p rung needs
// more than Binge On's 1.5 Mbps throttle; the 480p rung fits under it —
// exactly the sub-HD effect experiment E4 reproduces.
var BitrateLadder = []float64{0.4e6, 1.0e6, 2.5e6, 5.0e6}

// LadderNames label the rungs for reporting.
var LadderNames = []string{"240p", "480p", "720p", "1080p"}

// VideoSegment is one ABR segment.
type VideoSegment struct {
	// Index within the session.
	Index int
	// BitrateBps is the encoded rate chosen for this segment.
	BitrateBps float64
	// Rung is the ladder index of BitrateBps.
	Rung int
	// Bytes for SegmentSeconds of video at that rate.
	Bytes int
}

// SegmentSeconds is the fixed segment duration.
const SegmentSeconds = 4

// VideoSession simulates an ABR client: each segment picks the highest
// rung whose bitrate fits within estimate*safety of the measured
// throughput. It returns the segments fetched and the mean rung.
func VideoSession(throughputBps func(segment int) float64, segments int) []VideoSegment {
	const safety = 0.8
	out := make([]VideoSegment, 0, segments)
	for i := 0; i < segments; i++ {
		tput := throughputBps(i)
		rung := 0
		for r := len(BitrateLadder) - 1; r >= 0; r-- {
			if BitrateLadder[r] <= tput*safety {
				rung = r
				break
			}
		}
		out = append(out, VideoSegment{
			Index:      i,
			BitrateBps: BitrateLadder[rung],
			Rung:       rung,
			Bytes:      int(BitrateLadder[rung] * SegmentSeconds / 8),
		})
	}
	return out
}

// MeanRung averages the quality rung over a session.
func MeanRung(segs []VideoSegment) float64 {
	if len(segs) == 0 {
		return 0
	}
	var s float64
	for _, seg := range segs {
		s += float64(seg.Rung)
	}
	return s / float64(len(segs))
}

// AppRequest is one mobile-app HTTP request, possibly leaking PII.
type AppRequest struct {
	Host string
	Path string
	Body string
	// LeaksPII marks requests that carry user secrets/identifiers.
	LeaksPII bool
	// Encrypted requests go over TLS (invisible to plaintext
	// detectors).
	Encrypted bool
}

// AppGen generates app traffic with a configurable leak rate.
type AppGen struct {
	rng *netsim.RNG
	// LeakRate is the fraction of requests leaking PII. Default 0.15
	// (of the order ReCon reports for popular apps).
	LeakRate float64
	// EncryptedShare is the fraction of traffic over TLS. Default 0.5.
	EncryptedShare float64
	// Secrets are the user's protected values.
	Secrets []string
}

// NewAppGen builds a generator.
func NewAppGen(seed uint64, secrets []string) *AppGen {
	return &AppGen{rng: netsim.NewRNG(seed), LeakRate: 0.15, EncryptedShare: 0.5, Secrets: secrets}
}

// Request draws one app request.
func (g *AppGen) Request() AppRequest {
	r := AppRequest{
		Host:      fmt.Sprintf("api%d.app.example", g.rng.Intn(5)),
		Path:      fmt.Sprintf("/v1/sync?k=%d", g.rng.Intn(100000)),
		Body:      fmt.Sprintf(`{"event":"open","ts":%d}`, g.rng.Intn(1_000_000)),
		Encrypted: g.rng.Bool(g.EncryptedShare),
	}
	if g.rng.Bool(g.LeakRate) {
		r.LeaksPII = true
		switch g.rng.Intn(3) {
		case 0:
			if len(g.Secrets) > 0 {
				r.Body = fmt.Sprintf(`{"password":"%s"}`, g.Secrets[g.rng.Intn(len(g.Secrets))])
			} else {
				r.Body = `{"email":"user@example.com"}`
			}
		case 1:
			r.Body = fmt.Sprintf(`{"lat=%0.4f&lon=%0.4f"}`, 42.0+g.rng.Float64(), -71.0-g.rng.Float64())
		default:
			r.Body = `{"contact":"alice.doe@example.com","phone":"617-555-1234"}`
		}
	}
	return r
}

// --- packetization helpers ---

// HTTPRequestPacket builds the raw IPv4 frame for an app/web request from
// src to dst.
func HTTPRequestPacket(src, dst packet.IPv4Address, sport uint16, host, path, body string) ([]byte, error) {
	h := &packet.HTTP{IsRequest: true, Method: "POST", Path: path, Body: []byte(body)}
	h.SetHeader("Host", host)
	msg, err := packet.SerializeToBytes(h)
	if err != nil {
		return nil, err
	}
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	return packet.SerializeToBytes(ip, tcp, packet.Payload(msg))
}

// HTTPResponsePacket builds a response frame (dst is the device).
func HTTPResponsePacket(src, dst packet.IPv4Address, dport uint16, contentType string, body []byte) ([]byte, error) {
	h := &packet.HTTP{StatusCode: 200, StatusText: "OK", Body: body}
	h.SetHeader("Content-Type", contentType)
	msg, err := packet.SerializeToBytes(h)
	if err != nil {
		return nil, err
	}
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 80, DstPort: dport}
	tcp.SetNetworkLayerForChecksum(ip)
	return packet.SerializeToBytes(ip, tcp, packet.Payload(msg))
}

// TLSClientHelloPacket builds a TLS ClientHello frame with the given SNI.
func TLSClientHelloPacket(src, dst packet.IPv4Address, sport uint16, sni string, seed uint64) ([]byte, error) {
	var random [32]byte
	r := netsim.NewRNG(seed)
	for i := range random {
		random[i] = byte(r.Uint64())
	}
	rec := packet.BuildClientHello(sni, random, []uint16{0x1301, 0x1302})
	body, err := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{rec}})
	if err != nil {
		return nil, err
	}
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: sport, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	return packet.SerializeToBytes(ip, tcp, packet.Payload(body))
}
