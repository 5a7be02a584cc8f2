package middlebox

import (
	"strings"
	"testing"
	"time"

	"pvn/internal/packet"
)

// keepBox breaks the Box contract on purpose: it keeps the HTTP layer
// ctx.Packet showed it for one packet and the view ctx.HTTP showed it,
// each with its header list, and reads them when the next packet
// arrives, before asking for the new ones.
type keepBox struct {
	kept        *packet.HTTP
	headers     []packet.HTTPHeader
	view        *packet.HTTPView
	viewHeaders []packet.HTTPHeaderView
	// path and firstHeader are what the kept layer read on the next
	// call, viewPath and viewHeader what the kept view read.
	path, firstHeader, viewPath, viewHeader string
}

func (*keepBox) Name() string { return "keep" }
func (k *keepBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	if k.kept != nil {
		k.path, k.firstHeader = k.kept.Path, k.headers[0].Name
		k.viewPath, k.viewHeader = string(k.view.Path), string(k.viewHeaders[0].Name)
	}
	k.kept = ctx.Packet(data).HTTP()
	k.headers = k.kept.Headers
	k.view = ctx.HTTP(data)
	k.viewHeaders = k.view.Headers
	return data, VerdictPass, nil
}

// TestRetainedViewSeesPoison: race builds poison the pooled decode and
// HTTP view at the end of every chain invocation, so a box that keeps a
// view of one packet reads the poison marker on the next, never the old
// packet's fields or a plausible later packet's.
func TestRetainedViewSeesPoison(t *testing.T) {
	if !raceEnabled {
		t.Skip("the decode scratch is poisoned in race builds only")
	}
	now := time.Second
	rt := NewRuntime(func() time.Duration { return now })
	box := &keepBox{}
	rt.Register(&Spec{Type: "keep", New: func(map[string]string) (Box, error) { return box, nil }})
	inst, err := rt.Instantiate("alice", "keep", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "t", []string{inst.ID}, nil); err != nil {
		t.Fatal(err)
	}
	now += DefaultBootDelay
	get := func(path string) []byte {
		ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: 40001, DstPort: 80}
		tcp.SetNetworkLayerForChecksum(ip)
		data, err := packet.SerializeToBytes(ip, tcp, &packet.HTTP{IsRequest: true, Method: "GET", Path: path,
			Headers: []packet.HTTPHeader{{Name: "Host", Value: "news.example"}}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i, path := range []string{"/first", "/second", "/third"} {
		if out, _, err := rt.ExecuteChain("alice/t", get(path)); err != nil || out == nil {
			t.Fatalf("packet %d: out=%v err=%v", i, out != nil, err)
		}
		if i == 0 {
			continue
		}
		if box.path != "" || !strings.Contains(box.firstHeader, "poisoned") {
			t.Errorf("packet %d: the layer kept from the packet before read path %q, header %q; want the poison", i, box.path, box.firstHeader)
		}
		if box.viewPath != "" || !strings.Contains(box.viewHeader, "poisoned") {
			t.Errorf("packet %d: the view kept from the packet before read path %q, header %q; want the poison", i, box.viewPath, box.viewHeader)
		}
	}
}
