package pvnc

import (
	"strings"
	"testing"
	"time"

	"pvn/internal/openflow"
	"pvn/internal/packet"
)

const goodSrc = `
# Alice's roaming configuration (Fig 1a shape)
pvnc alice-roaming
owner alice
device 10.0.0.5

middlebox tlsv tls-verify mode=block
middlebox pii  pii-detect mode=redact secrets=hunter2
middlebox vid  transcoder ratio=0.4

chain secure tlsv pii
chain video vid

policy 100 match proto=tcp dport=443 via=secure action=forward
policy 90  match proto=tcp dport=80 via=secure action=forward
policy 80  match dst=203.0.113.0/24 via=video rate=1.5mbps action=forward
policy 70  match proto=tcp dport=993 action=tunnel:cloud
policy 60  match proto=udp dport=53 action=forward
policy 50  match dst=198.18.0.1 action=drop
policy 0   match any action=forward
`

func parseGood(t *testing.T) *PVNC {
	t.Helper()
	p, err := Parse(goodSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := p.Validate(); len(errs) > 0 {
		t.Fatalf("validate: %v", errs)
	}
	return p
}

func TestParseGood(t *testing.T) {
	p := parseGood(t)
	if p.Name != "alice-roaming" || p.Owner != "alice" {
		t.Fatalf("header %+v", p)
	}
	if p.Device != packet.MustParseIPv4("10.0.0.5") {
		t.Fatalf("device %v", p.Device)
	}
	if len(p.Middleboxes) != 3 || len(p.Chains) != 2 || len(p.Policies) != 7 {
		t.Fatalf("counts %d/%d/%d", len(p.Middleboxes), len(p.Chains), len(p.Policies))
	}
	if p.Middleboxes[1].Config["secrets"] != "hunter2" {
		t.Fatalf("config %+v", p.Middleboxes[1].Config)
	}
	if p.Policies[2].RateBps != 1.5e6 {
		t.Fatalf("rate %v", p.Policies[2].RateBps)
	}
	if p.Policies[3].Action != ActTunnel || p.Policies[3].TunnelName != "cloud" {
		t.Fatalf("tunnel policy %+v", p.Policies[3])
	}
	if p.Policies[5].Match.DstBits != 32 {
		t.Fatalf("bare dst bits %d, want 32", p.Policies[5].Match.DstBits)
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"bogus directive", "unknown directive"},
		{"pvnc", "requires a name"},
		{"device notanip", "bad device address"},
		{"middlebox x", "middlebox requires"},
		{"middlebox x t badkv", "not key=value"},
		{"chain only", "chain requires"},
		{"policy abc match any action=forward", "bad priority"},
		{"policy 1 match dport=99999 action=forward", "bad port"},
		{"policy 1 match proto=icmp action=forward", "bad proto"},
		{"policy 1 match any action=explode", "unknown action"},
		{"policy 1 match any", "missing action"},
		{"policy 1 match dst=1.2.3.4/40 action=forward", "bad prefix"},
		{"policy 1 match rate=fast any action=forward", "bad rate"},
		{"policy 1 match rate=.1 any action=forward", "bad rate"},
		{"policy 1 match rate=0.9bps any action=forward", "bad rate"},
		{"policy 1 match rate=nan any action=forward", "bad rate"},
		{"policy 1 match any action=tunnel:", "requires a name"},
		{"policy 1 nomatch any action=forward", "policy requires"},
		{"policy 1 match wat=1 action=forward", "unknown policy token"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("accepted %q", c.src)
			continue
		}
		if pe, ok := err.(*ParseError); !ok || pe.Line != 1 {
			t.Errorf("error for %q lacks line info: %v", c.src, err)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("error for %q = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestValidateCatchesInvariants(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no default", "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward", "catch-all"},
		{"two defaults", "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 0 match any action=forward\npolicy 5 match any action=forward", "priority 0"},
		{"dup priority", "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward\npolicy 10 match dport=81 action=forward\npolicy 0 match any action=forward", "share priority"},
		{"undefined chain", "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 via=ghost action=forward\npolicy 0 match any action=forward", "undefined chain"},
		{"undefined mbx in chain", "pvnc x\nowner a\ndevice 1.2.3.4\nchain c ghost\npolicy 0 match any action=forward", "undefined middlebox"},
		{"dup middlebox", "pvnc x\nowner a\ndevice 1.2.3.4\nmiddlebox m t\nmiddlebox m t\npolicy 0 match any action=forward", "duplicate middlebox"},
		{"dup chain", "pvnc x\nowner a\ndevice 1.2.3.4\nmiddlebox m t\nchain c m\nchain c m\npolicy 0 match any action=forward", "duplicate chain"},
		{"missing owner", "pvnc x\ndevice 1.2.3.4\npolicy 0 match any action=forward", "missing owner"},
		{"missing device", "pvnc x\nowner a\npolicy 0 match any action=forward", "missing device"},
		{"shadowed policy", "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward\npolicy 5 match dport=80 action=drop\npolicy 0 match any action=forward", "shadows"},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		errs := p.Validate()
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: errors %v missing %q", c.name, errs, c.want)
		}
	}
}

func TestValidateGoodIsClean(t *testing.T) {
	p := parseGood(t)
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("unexpected violations: %v", errs)
	}
}

func TestEstimate(t *testing.T) {
	p := parseGood(t)
	e := p.Estimate()
	if e.NumMiddleboxes != 3 || e.NumChains != 2 || e.NumPolicies != 7 {
		t.Fatalf("estimate %+v", e)
	}
	// 7 policies (incl. the scoped catch-all) * 2 directions * 1 addr.
	if e.NumFlowRules != 14 {
		t.Fatalf("rules %d, want 14", e.NumFlowRules)
	}
	if e.MemoryBytes != 3*(6<<20) {
		t.Fatalf("memory %d", e.MemoryBytes)
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	a1, _ := Parse(goodSrc)
	a2, _ := Parse(goodSrc)
	if a1.Hash() != a2.Hash() {
		t.Fatal("same source, different hash")
	}
	b, _ := Parse(goodSrc + "\n# tweak")
	if a1.Hash() == b.Hash() {
		t.Fatal("different source, same hash")
	}
}

func TestCompileRefusesInvalid(t *testing.T) {
	p, _ := Parse("pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward")
	if _, err := Compile(p, CompileOptions{}); err == nil {
		t.Fatal("compiled config without default policy")
	}
}

func TestCompileProducesOrderedRules(t *testing.T) {
	p := parseGood(t)
	c, err := Compile(p, CompileOptions{Cookie: 7, DevicePort: 0, UpstreamPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rules) != 14 {
		t.Fatalf("rules %d, want 14", len(c.Rules))
	}
	last := 1 << 30
	for _, r := range c.Rules {
		if r.Priority > last {
			t.Fatal("rules not in descending priority order")
		}
		last = r.Priority
		if r.Cookie != 7 {
			t.Fatalf("cookie %d", r.Cookie)
		}
	}
	if len(c.Meters) != 1 || c.Meters[0].RateBps != 1.5e6 {
		t.Fatalf("meters %+v", c.Meters)
	}
	if c.Owner != "alice" || c.Hash != p.Hash() {
		t.Fatalf("identity %q %q", c.Owner, c.Hash)
	}
}

// TestCompiledRulesBehaveOnSwitch drives the compiled rules end to end
// through an actual switch.
func TestCompiledRulesBehaveOnSwitch(t *testing.T) {
	p := parseGood(t)
	c, err := Compile(p, CompileOptions{Cookie: 1, DevicePort: 0, UpstreamPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw := openflow.NewSwitch("edge", nil)
	sw.Table.InstallAll(c.Entries(), 0)
	for _, m := range c.Meters {
		sw.Table.AddMeter(m.ID, openflow.Meter{RateBps: m.RateBps})
	}
	sw.Chains = passthroughChains{}

	dev := packet.MustParseIPv4("10.0.0.5")
	web := packet.MustParseIPv4("93.184.216.34")

	mk := func(src, dst packet.IPv4Address, sport, dport uint16) []byte {
		ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoTCP}
		tcp := &packet.TCP{SrcPort: sport, DstPort: dport}
		tcp.SetNetworkLayerForChecksum(ip)
		data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload("x"))
		return data
	}

	// HTTPS outbound: via chain then upstream.
	d := sw.Process(mk(dev, web, 40000, 443), 0)
	if d.Verdict != openflow.VerdictOutput || d.Port != 1 {
		t.Fatalf("https outbound: %+v", d)
	}
	// HTTPS inbound: back to device port.
	d = sw.Process(mk(web, dev, 443, 40000), 1)
	if d.Verdict != openflow.VerdictOutput || d.Port != 0 {
		t.Fatalf("https inbound: %+v", d)
	}
	// IMAPS tunnels.
	d = sw.Process(mk(dev, web, 40001, 993), 0)
	if d.Verdict != openflow.VerdictTunnel || d.TunnelName != "cloud" {
		t.Fatalf("tunnel policy: %+v", d)
	}
	// Blocked destination drops.
	d = sw.Process(mk(dev, packet.MustParseIPv4("198.18.0.1"), 40002, 7070), 0)
	if d.Verdict != openflow.VerdictDrop {
		t.Fatalf("drop policy: %+v", d)
	}
	// Unrelated traffic hits the catch-all and forwards.
	d = sw.Process(mk(dev, web, 40003, 12345), 0)
	if d.Verdict != openflow.VerdictOutput || d.Port != 1 {
		t.Fatalf("default policy: %+v", d)
	}
	// Video prefix is metered: a big burst must pick up shaping delay.
	video := packet.MustParseIPv4("203.0.113.50")
	var sawDelay bool
	for i := 0; i < 2000; i++ {
		d = sw.Process(mk(dev, video, 40004, 8080), 0)
		if d.Delay > 0 {
			sawDelay = true
			break
		}
	}
	if !sawDelay {
		t.Fatal("metered policy never shaped")
	}
}

type passthroughChains struct{}

func (passthroughChains) ExecuteChain(chain string, data []byte) ([]byte, time.Duration, error) {
	return data, 0, nil
}
