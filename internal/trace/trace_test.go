package trace

import (
	"reflect"
	"testing"

	"pvn/internal/packet"
)

func TestWebGenDeterministic(t *testing.T) {
	a := NewWebGen(7).Page("news.example")
	b := NewWebGen(7).Page("news.example")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different pages")
	}
}

func TestWebGenShape(t *testing.T) {
	g := NewWebGen(1)
	trackerObjs, total := 0, 0
	for i := 0; i < 200; i++ {
		p := g.Page("site.example")
		if len(p.Objects) < 6 || len(p.Objects) > 41 {
			t.Fatalf("page has %d objects", len(p.Objects))
		}
		if p.Objects[0].ContentType != "text/html" {
			t.Fatal("first object is not the document")
		}
		for _, o := range p.Objects {
			if o.Bytes < 64 {
				t.Fatalf("object %d bytes", o.Bytes)
			}
			total++
			if o.Tracker {
				trackerObjs++
				found := false
				for _, d := range TrackerDomains {
					if o.Host == d {
						found = true
					}
				}
				if !found {
					t.Fatalf("tracker object from %q", o.Host)
				}
			}
		}
	}
	frac := float64(trackerObjs) / float64(total)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("tracker fraction %.2f, want ~0.25", frac)
	}
}

func TestVideoSessionAdaptsToThroughput(t *testing.T) {
	// Plenty of bandwidth: top rung.
	segs := VideoSession(func(int) float64 { return 50e6 }, 10)
	if MeanRung(segs) != 3 {
		t.Fatalf("fast link mean rung %v, want 3", MeanRung(segs))
	}
	// Binge On-style 1.5 Mbps shaping: must sit below HD (rung<=1,
	// 480p), since 2.5 Mbps (720p) needs more than 1.5*0.8.
	segs = VideoSession(func(int) float64 { return 1.5e6 }, 10)
	if MeanRung(segs) > 1 {
		t.Fatalf("shaped link mean rung %v, want <=1 (sub-HD)", MeanRung(segs))
	}
	for _, s := range segs {
		if s.BitrateBps != BitrateLadder[s.Rung] {
			t.Fatal("rung/bitrate mismatch")
		}
		if s.Bytes != int(s.BitrateBps*SegmentSeconds/8) {
			t.Fatal("segment size mismatch")
		}
	}
	// Starved link: bottom rung, never panics.
	segs = VideoSession(func(int) float64 { return 0.1e6 }, 5)
	if MeanRung(segs) != 0 {
		t.Fatalf("starved link rung %v", MeanRung(segs))
	}
}

func TestVideoSessionEmpty(t *testing.T) {
	if MeanRung(nil) != 0 {
		t.Fatal("empty session mean rung")
	}
}

func TestAppGenLeakRate(t *testing.T) {
	g := NewAppGen(3, []string{"hunter2"})
	leaks, enc := 0, 0
	const n = 5000
	for i := 0; i < n; i++ {
		r := g.Request()
		if r.LeaksPII {
			leaks++
		}
		if r.Encrypted {
			enc++
		}
	}
	if f := float64(leaks) / n; f < 0.12 || f > 0.18 {
		t.Fatalf("leak rate %.3f, want ~0.15", f)
	}
	if f := float64(enc) / n; f < 0.45 || f > 0.55 {
		t.Fatalf("encrypted share %.3f, want ~0.5", f)
	}
}

func TestPacketHelpers(t *testing.T) {
	dev := packet.MustParseIPv4("10.0.0.5")
	srv := packet.MustParseIPv4("93.184.216.34")

	req, err := HTTPRequestPacket(dev, srv, 40000, "h.example", "/p", "body")
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Decode(req, packet.LayerTypeIPv4)
	if p.HTTP() == nil || p.HTTP().Host() != "h.example" {
		t.Fatalf("request stack %s", p)
	}
	if !p.TCP().VerifyChecksum(p.IPv4().LayerPayload()) {
		t.Fatal("request checksum")
	}

	resp, err := HTTPResponsePacket(srv, dev, 40000, "video/mp4", []byte("MOVIE"))
	if err != nil {
		t.Fatal(err)
	}
	p = packet.Decode(resp, packet.LayerTypeIPv4)
	if p.HTTP() == nil || p.HTTP().Header("Content-Type") != "video/mp4" {
		t.Fatalf("response stack %s", p)
	}

	hello, err := TLSClientHelloPacket(dev, srv, 40001, "secure.example", 9)
	if err != nil {
		t.Fatal(err)
	}
	p = packet.Decode(hello, packet.LayerTypeIPv4)
	tl := p.TLS()
	if tl == nil {
		t.Fatalf("tls stack %s", p)
	}
	hs, _ := tl.Records[0].Handshakes()
	ch, err := packet.ParseClientHello(hs[0].Body)
	if err != nil || ch.ServerName != "secure.example" {
		t.Fatalf("sni %v err=%v", ch, err)
	}
}
