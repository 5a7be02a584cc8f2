package mbx

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// viewBox records what ctx.Packet shows a hop: the bytes it was handed
// and the HTTP message decoded from them. Both are deep copies: the
// decode's header list and the packet's bytes are reused once the chain
// invocation ends. live is the shared decode itself, for a later hop of
// the same invocation to look at.
type viewBox struct {
	data []byte
	http packet.HTTP
	live *packet.HTTP
}

func (*viewBox) Name() string { return "view" }
func (v *viewBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	v.data = slices.Clone(data)
	if v.live = ctx.Packet(data).HTTP(); v.live != nil {
		v.http = *v.live
		v.http.Headers, v.http.Body = slices.Clone(v.live.Headers), slices.Clone(v.live.Body)
	}
	return data, middlebox.VerdictPass, nil
}

// funcBox runs check as a hop and passes the packet on.
type funcBox struct{ check func() }

func (funcBox) Name() string { return "func" }
func (f funcBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	f.check()
	return data, middlebox.VerdictPass, nil
}

// decoyBox asks the context to decode bytes of its own choosing and
// passes the real packet on untouched: an attempt to plant a decode for
// the hops behind it.
type decoyBox struct{ decoy []byte }

func (*decoyBox) Name() string { return "decoy" }
func (d *decoyBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	if ctx.Packet(d.decoy).HTTP() == nil {
		return nil, middlebox.VerdictDrop, errors.New("decoy did not decode")
	}
	return data, middlebox.VerdictPass, nil
}

// chainOf builds alice's chain "t" over boxes, pinned to the device
// address so the isolation check has decoded the packet before the first
// hop runs.
func chainOf(t *testing.T, boxes ...middlebox.Box) *middlebox.Runtime {
	t.Helper()
	rt := middlebox.NewRuntime(nil)
	var ids []string
	for _, b := range boxes {
		b := b
		rt.Register(&middlebox.Spec{Type: b.Name(), New: func(map[string]string) (middlebox.Box, error) { return b, nil }})
		inst, err := rt.Instantiate("alice", b.Name(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inst.ID)
	}
	if _, err := rt.BuildChain("alice", "t", ids, []packet.IPv4Address{devIP}); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestReaderBehindRewriterSeesRewrittenPacket: the decode is shared by
// the hops that are handed the same bytes and by no others. Behind a
// rewriting box ctx.Packet describes the rewritten packet; a box cannot
// plant a decode of other bytes for the hops behind it; and the decode a
// reader saw before a rewriter still describes the original.
func TestReaderBehindRewriterSeesRewrittenPacket(t *testing.T) {
	t.Run("pii-detect redact", func(t *testing.T) {
		before, after := &viewBox{}, &viewBox{}
		pii := NewPIIDetect(PIIRedact, []string{"hunter2"})
		rt := chainOf(t, before, pii, after)
		in := httpReq(t, "POST", "h", "/l/hunter2", "password=hunter2&x=1")
		out, err := runChain(t, rt, in)
		if err != nil || out == nil {
			t.Fatalf("chain: out=%v err=%v", out != nil, err)
		}
		if string(before.http.Body) != "password=hunter2&x=1" || before.http.Path != "/l/hunter2" {
			t.Errorf("reader ahead of the rewriter saw %q %q", before.http.Path, before.http.Body)
		}
		if string(after.http.Body) != "password=*******&x=1" || after.http.Path != "/l/*******" {
			t.Errorf("reader behind the rewriter saw %q %q, want the redacted message", after.http.Path, after.http.Body)
		}
		if string(after.data) != string(out) || string(out) == string(in) {
			t.Error("reader was not handed the rewritten bytes")
		}
	})
	t.Run("compressor", func(t *testing.T) {
		before, after := &viewBox{}, &viewBox{}
		page := strings.Repeat("<p>compressible text</p>", 40)
		// The compressor replaces Content-Length on its own copy of the
		// message: the decode it shared with the reader ahead of it stays
		// as it was for the rest of the invocation.
		shared := funcBox{check: func() {
			if got := before.live.Header("Content-Length"); got != strconv.Itoa(len(page)) {
				t.Errorf("the rewriter changed the decode the hop ahead of it shares: Content-Length %q", got)
			}
		}}
		rt := chainOf(t, before, NewCompressor(), after, shared)
		resp := &packet.HTTP{StatusCode: 200, StatusText: "OK", Body: []byte(page), Headers: []packet.HTTPHeader{
			{Name: "Server", Value: "t"}, {Name: "Content-Type", Value: "text/html"}, {Name: "Content-Length", Value: strconv.Itoa(len(page))}}}
		msg, err := packet.SerializeToBytes(resp)
		if err != nil {
			t.Fatal(err)
		}
		out, err := runChain(t, rt, tcpSegRev(t, 80, msg))
		if err != nil || out == nil {
			t.Fatalf("chain: out=%v err=%v", out != nil, err)
		}
		if before.http.Header("Content-Length") != strconv.Itoa(len(page)) || string(before.http.Body) != page {
			t.Errorf("the hop ahead of the rewriter decoded %+v", before.http.Headers)
		}
		if after.http.Header("Content-Encoding") != "deflate" {
			t.Fatalf("reader behind the compressor saw headers %+v", after.http.Headers)
		}
		if plain, err := Decompress(after.http.Body); err != nil || string(plain) != page {
			t.Errorf("reader behind the compressor did not see the compressed body (err=%v)", err)
		}
	})
	t.Run("planted decode", func(t *testing.T) {
		after := &viewBox{}
		rt := chainOf(t, &decoyBox{decoy: httpReq(t, "GET", "ads.example", "/decoy", "")}, after)
		if out, err := runChain(t, rt, httpReq(t, "GET", "good.example", "/real", "")); err != nil || out == nil {
			t.Fatalf("chain: out=%v err=%v", out != nil, err)
		}
		if after.http.Path != "/real" || after.http.Host() != "good.example" {
			t.Errorf("the hop behind the decoy decoded %q %q, not the packet it was handed", after.http.Host(), after.http.Path)
		}
	})
}

// viewTap records what ctx.HTTP shows a hop, copied: path and host.
type viewTap struct{ path, host string }

func (*viewTap) Name() string { return "view-tap" }
func (v *viewTap) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	h := ctx.HTTP(data)
	v.path, v.host = string(h.Path), string(h.Host())
	return data, middlebox.VerdictPass, nil
}

// viewDecoy asks ctx.HTTP about bytes of its own choosing and passes the
// real packet on.
type viewDecoy struct{ decoy []byte }

func (*viewDecoy) Name() string { return "view-decoy" }
func (d *viewDecoy) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	if ctx.HTTP(d.decoy) == nil {
		return nil, middlebox.VerdictDrop, errors.New("decoy did not parse")
	}
	return data, middlebox.VerdictPass, nil
}

// TestHTTPViewFollowsTheSlice: ctx.HTTP keeps Packet's same-slice rule.
// A box cannot plant a view of other bytes for the hops behind it, a hop
// behind a rewriter sees the rewritten message, and a hop ahead of it
// the original.
func TestHTTPViewFollowsTheSlice(t *testing.T) {
	before, after := &viewTap{}, &viewTap{}
	decoy := &viewDecoy{decoy: httpReq(t, "GET", "ads.example", "/decoy", "")}
	rt := chainOf(t, decoy, before, NewPIIDetect(PIIRedact, []string{"hunter2"}), after)
	if out, err := runChain(t, rt, httpReq(t, "GET", "good.example", "/l/hunter2", "")); err != nil || out == nil {
		t.Fatalf("chain: out=%v err=%v", out != nil, err)
	}
	if before.path != "/l/hunter2" || before.host != "good.example" {
		t.Errorf("the hop behind the decoy saw %q %q", before.host, before.path)
	}
	if after.path != "/l/*******" || after.host != "good.example" {
		t.Errorf("the hop behind the rewriter saw %q %q, want the redacted message", after.host, after.path)
	}
}

// chainAllocs is what one packet through alice's chain on rt allocates,
// once the pooled scratch has grown.
func chainAllocs(t *testing.T, rt *middlebox.Runtime, frame []byte) float64 {
	t.Helper()
	exec := func() {
		if out, err := runChain(t, rt, frame); err != nil || out == nil {
			t.Fatalf("clean packet did not pass: out=%v err=%v", out != nil, err)
		}
	}
	exec()
	return testing.AllocsPerRun(200, exec)
}

// TestCleanPacketBoxAllocs: a clean ~800-byte GET allocates nothing per
// chain invocation: not the isolation check (a headers-only decode into
// pooled storage), not pii-detect (every detector, block mode) and not
// tracker-block (a mixed-case host), alone or together. Both read the
// message through ctx.HTTP's view of the packet bytes, so no header
// block is copied into a string.
func TestCleanPacketBoxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	get := httpReq(t, "GET", "News.Example", "/story", "", packet.HTTPHeader{Name: "Cookie", Value: strings.Repeat("abcdefghij klmnop; ", 37)})
	pii := NewPIIDetect(PIIBlock, []string{"hunter2", "DevID-77"})
	trk := NewTrackerBlock([]string{"ads.example", "tracker.net"})
	for _, c := range []struct {
		name  string
		boxes []middlebox.Box
	}{{"the isolation check", nil}, {pii.Name(), []middlebox.Box{pii}}, {trk.Name(), []middlebox.Box{trk}}, {"both", []middlebox.Box{pii, trk}}} {
		if got := chainAllocs(t, chainOf(t, c.boxes...), get); got != 0 {
			t.Errorf("%s allocates %.1f per clean packet, want 0", c.name, got)
		}
	}
}

// TestReaderBehindRewriterAllocs: a hop behind a rewriter reads the
// rewritten bytes through the context's second decoder and view, so
// tracker-block behind pii-detect mode=redact adds no allocation to
// what the redaction itself costs. And the redaction costs one
// allocation over alert mode's: the copy it masks in place.
func TestReaderBehindRewriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	leak := httpReq(t, "GET", "News.Example", "/l/hunter2", "", packet.HTTPHeader{Name: "Cookie", Value: strings.Repeat("abcdefghij klmnop; ", 37)})
	redact := func() middlebox.Box { return NewPIIDetect(PIIRedact, []string{"hunter2"}) }
	alone := chainAllocs(t, chainOf(t, redact()), leak)
	alert := chainAllocs(t, chainOf(t, NewPIIDetect(PIIAlert, []string{"hunter2"})), leak)
	if alone > alert+1 {
		t.Errorf("pii-detect mode=redact allocates %.1f per leaking GET, want at most alert mode's %.1f plus the output copy", alone, alert)
	}
	behind := chainAllocs(t, chainOf(t, redact(), NewTrackerBlock([]string{"ads.example", "tracker.net"})), leak)
	if behind != alone {
		t.Errorf("tracker-block behind a redacting pii-detect adds %.1f allocations per packet (%.1f alone, %.1f with it), want 0", behind-alone, alone, behind)
	}
}
