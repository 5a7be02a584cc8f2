package mbx

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// viewBox records what ctx.Packet shows a hop: the bytes it was handed
// and the HTTP message decoded from them.
type viewBox struct {
	data []byte
	http packet.HTTP
}

func (*viewBox) Name() string { return "view" }
func (v *viewBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	v.data = data
	if h := ctx.Packet(data).HTTP(); h != nil {
		v.http = *h
	}
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
		rt := chainOf(t, before, NewCompressor(), after)
		page := strings.Repeat("<p>compressible text</p>", 40)
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
		// The compressor replaces Content-Length on its own copy of the
		// message: the decode it shared with the reader ahead of it
		// stays as it was.
		if before.http.Header("Content-Length") != strconv.Itoa(len(page)) || string(before.http.Body) != page {
			t.Errorf("the rewriter changed what the hop ahead of it had decoded: %+v", before.http.Headers)
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
