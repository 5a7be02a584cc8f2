package pvnc

import (
	"fmt"
	"reflect"
	"testing"
)

// moduleSource renders the same store module personalized for one
// subscriber — identical shape, different owner/device/sensor lines.
func moduleSource(owner, device, sensor string) string {
	src := fmt.Sprintf(`pvnc privacy-guard
owner %s
device %s
`, owner, device)
	if sensor != "" {
		src += "sensor " + sensor + "\n"
	}
	return src + `
middlebox tlsv tls-verify mode=block
middlebox pii pii-detect mode=redact secrets=hunter2
chain secure tlsv pii

policy 100 match proto=tcp dport=443 via=secure action=forward
policy 90 match proto=tcp dport=80 via=secure rate=2mbps action=forward
policy 80 match dst=203.0.113.0/24 rate=1.5mbps action=forward
policy 70 match dport=993 action=tunnel:cloud
policy 60 match proto=udp dport=53 action=drop
policy 0 match any action=forward
`
}

func mustParse(t *testing.T, src string) *PVNC {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// TestCompileSharedEquivalence: CompileShared must be observationally
// identical to Compile for every subscriber — same flow mods, meters,
// plans, hash — sharing is an implementation detail.
func TestCompileSharedEquivalence(t *testing.T) {
	cache := NewTemplateCache()
	subs := []struct{ owner, device, sensor string }{
		{"alice", "10.0.0.5", "10.0.0.6"},
		{"bob", "10.0.1.9", ""},
		{"carol", "10.0.2.2", "10.0.2.3"},
	}
	for i, sub := range subs {
		p := mustParse(t, moduleSource(sub.owner, sub.device, sub.sensor))
		opt := CompileOptions{Cookie: uint64(100 + i), DevicePort: 2, UpstreamPort: 1,
			ChainNamespace: sub.owner + ".dev"}
		want, err := Compile(p, opt)
		if err != nil {
			t.Fatalf("Compile(%s): %v", sub.owner, err)
		}
		got, err := cache.CompileShared(p, opt)
		if err != nil {
			t.Fatalf("CompileShared(%s): %v", sub.owner, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CompileShared(%s) diverges from Compile:\n got %+v\nwant %+v", sub.owner, got, want)
		}
	}
	st := cache.Stats()
	if st.Templates != 1 || st.Hits != 2 {
		t.Fatalf("expected 1 template + 2 hits, got %+v", st)
	}
}

// TestCompileSharedAliasing: subscribers of one template alias the same
// namespace-free action slices, while namespace-bearing slices are
// private per deployment (copy-on-write).
func TestCompileSharedAliasing(t *testing.T) {
	cache := NewTemplateCache()
	opt := func(cookie uint64, ns string) CompileOptions {
		return CompileOptions{Cookie: cookie, DevicePort: 2, UpstreamPort: 1, ChainNamespace: ns}
	}
	a, err := cache.CompileShared(mustParse(t, moduleSource("alice", "10.0.0.5", "")), opt(1, "alice.d"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.CompileShared(mustParse(t, moduleSource("bob", "10.0.1.9", "")), opt(2, "bob.d"))
	if err != nil {
		t.Fatal(err)
	}
	aliased, private := 0, 0
	for i := range a.Rules {
		am, bm := &a.Rules[i], &b.Rules[i]
		hasChain := false
		for _, act := range am.Actions {
			if act.Chain != "" {
				hasChain = true
			}
		}
		if hasChain {
			private++
			if &am.Actions[0] == &bm.Actions[0] {
				t.Fatalf("rule %d: namespace-bearing actions shared across deployments", i)
			}
		} else {
			aliased++
			if &am.Actions[0] != &bm.Actions[0] {
				t.Fatalf("rule %d: namespace-free actions not shared", i)
			}
		}
	}
	if aliased == 0 || private == 0 {
		t.Fatalf("degenerate template: %d aliased, %d private rules", aliased, private)
	}
}

// TestTemplateKeyNormalization: same module shape hashes identically
// across subscribers; a changed policy changes the key.
func TestTemplateKeyNormalization(t *testing.T) {
	a := mustParse(t, moduleSource("alice", "10.0.0.5", "10.0.0.6"))
	b := mustParse(t, moduleSource("bob", "10.0.9.1", ""))
	if TemplateKey(a) != TemplateKey(b) {
		t.Fatal("same module shape hashed to different template keys")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("personalized sources should have distinct PVNC hashes")
	}
	c := mustParse(t, moduleSource("carol", "10.0.3.3", "")+"\n# extra\n")
	c.Policies[0].Priority = 101
	if TemplateKey(a) == TemplateKey(c) {
		t.Fatal("changed policy must change the template key")
	}
}

// TestTemplateMemoryModel: sharing must reduce modeled rule-table bytes,
// and the per-subscriber increment must shrink as subscribers grow.
func TestTemplateMemoryModel(t *testing.T) {
	cache := NewTemplateCache()
	const n = 50
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("10.0.%d.%d", i/200, 1+i%200)
		p := mustParse(t, moduleSource(fmt.Sprintf("user%03d", i), dev, ""))
		if _, err := cache.CompileShared(p, CompileOptions{Cookie: uint64(i + 1), DevicePort: 2, UpstreamPort: 1, ChainNamespace: p.Owner + ".d"}); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Templates != 1 || st.Hits != n-1 {
		t.Fatalf("expected 1 template, %d hits; got %+v", n-1, st)
	}
	if st.SharedTableBytes() >= st.NaiveTableBytes() {
		t.Fatalf("sharing did not reduce modeled memory: shared=%d naive=%d",
			st.SharedTableBytes(), st.NaiveTableBytes())
	}
	if st.Entries == 0 || st.PrivateActionBytes == 0 || st.SharedActionBytes == 0 {
		t.Fatalf("incomplete accounting: %+v", st)
	}
}
