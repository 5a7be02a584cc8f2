package mbx

import (
	"strconv"
	"strings"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// TrafficClass labels a flow for policy purposes.
type TrafficClass string

// Traffic classes, the categories Fig 1(a)'s example PVNC routes
// differently (web text vs video/image vs encrypted).
const (
	ClassWebText TrafficClass = "web-text"
	ClassVideo   TrafficClass = "video"
	ClassImage   TrafficClass = "image"
	ClassDNS     TrafficClass = "dns"
	ClassTLS     TrafficClass = "tls"
	ClassOther   TrafficClass = "other"
)

// Classifier assigns each flow a TrafficClass from ports, SNI and HTTP
// content types, and exposes the table for policy decisions downstream.
type Classifier struct {
	flows map[packet.Flow]TrafficClass

	// Counts tracks packets per class.
	Counts map[TrafficClass]int64
}

// NewClassifier builds an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{flows: make(map[packet.Flow]TrafficClass), Counts: make(map[TrafficClass]int64)}
}

// Name implements middlebox.Box.
func (c *Classifier) Name() string { return "classifier" }

// Process implements middlebox.Box. Classification never drops.
func (c *Classifier) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	flow, ok := packet.FlowOf(p)
	if !ok {
		c.Counts[ClassOther]++
		return data, middlebox.VerdictPass, nil
	}
	key := flow.Canonical()
	cl := c.classify(p, key)
	c.flows[key] = cl
	c.Counts[cl]++
	return data, middlebox.VerdictPass, nil
}

func (c *Classifier) classify(p *packet.Packet, key packet.Flow) TrafficClass {
	if p.DNS() != nil {
		return ClassDNS
	}
	if p.TLS() != nil {
		// Refine with SNI when a ClientHello is visible.
		for _, rec := range p.TLS().Records {
			if rec.Type != packet.TLSTypeHandshake {
				continue
			}
			if hss, err := rec.Handshakes(); err == nil {
				for _, hs := range hss {
					if hs.Type != packet.TLSHandshakeClientHello {
						continue
					}
					if ch, err := packet.ParseClientHello(hs.Body); err == nil {
						if isVideoHost(ch.ServerName) {
							return ClassVideo
						}
					}
				}
			}
		}
		return ClassTLS
	}
	if h := p.HTTP(); h != nil {
		ct := strings.ToLower(h.Header("Content-Type"))
		switch {
		case strings.HasPrefix(ct, "video/"), strings.Contains(ct, "mpegurl"), strings.Contains(ct, "mp4"):
			return ClassVideo
		case strings.HasPrefix(ct, "image/"):
			return ClassImage
		case ct != "":
			return ClassWebText
		}
		if h.IsRequest {
			if isVideoHost(h.Host()) || strings.Contains(h.Path, ".m3u8") || strings.Contains(h.Path, ".mp4") {
				return ClassVideo
			}
			return ClassWebText
		}
		return ClassWebText
	}
	// Keep a previously learned class for mid-flow packets.
	if prev, ok := c.flows[key]; ok {
		return prev
	}
	return ClassOther
}

func isVideoHost(host string) bool {
	host = strings.ToLower(host)
	return strings.Contains(host, "video") || strings.Contains(host, "stream") || strings.Contains(host, "cdn-media")
}

// Transcoder reduces the bitrate of video HTTP responses, the PVN
// per-flow alternative to carrier-wide shaping (§2.2, E4): users pick
// which sessions to transcode instead of having every video throttled.
type Transcoder struct {
	// Ratio is the output/input size ratio in (0,1]; 0.4 approximates
	// transcoding 1080p to 480p.
	Ratio float64

	// BytesIn/BytesOut account the saving.
	BytesIn, BytesOut int64
}

// NewTranscoder builds a transcoder with the given compression ratio.
func NewTranscoder(ratio float64) *Transcoder {
	if ratio <= 0 || ratio > 1 {
		ratio = 0.4
	}
	return &Transcoder{Ratio: ratio}
}

// Name implements middlebox.Box.
func (t *Transcoder) Name() string { return "transcoder" }

// Process implements middlebox.Box: video responses get their bodies
// shrunk by Ratio and re-checksummed; everything else passes untouched.
func (t *Transcoder) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	v := ctx.HTTP(data)
	if v == nil || v.IsRequest || len(v.Body) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	if !strings.HasPrefix(strings.ToLower(string(v.Header("Content-Type"))), "video/") {
		return data, middlebox.VerdictPass, nil
	}
	t.BytesIn += int64(len(v.Body))
	newLen := max(int(float64(len(v.Body))*t.Ratio), 1)
	t.BytesOut += int64(newLen)

	return rewriteHTTP(data, v, v.Body[:newLen],
		packet.HTTPHeader{Name: "Content-Length", Value: strconv.Itoa(newLen)},
		packet.HTTPHeader{Name: "X-PVN-Transcoded", Value: "1"}), middlebox.VerdictPass, nil
}
