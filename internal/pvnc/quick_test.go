package pvnc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// genConfig builds a random but structurally valid PVNC from a seed.
func genConfig(seed uint64) *PVNC {
	rng := netsim.NewRNG(seed)
	var b strings.Builder
	fmt.Fprintf(&b, "pvnc gen-%d\n", seed)
	fmt.Fprintf(&b, "owner user%d\n", rng.Intn(100))
	fmt.Fprintf(&b, "device 10.%d.%d.%d\n", rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
	for i := 0; i < rng.Intn(3); i++ {
		fmt.Fprintf(&b, "sensor 10.200.%d.%d\n", i, 1+rng.Intn(254))
	}

	types := []string{"pii-detect", "tracker-block", "classifier", "compressor", "malware-scan"}
	nMbx := rng.Intn(4)
	for i := 0; i < nMbx; i++ {
		fmt.Fprintf(&b, "middlebox m%d %s\n", i, types[rng.Intn(len(types))])
	}
	nChains := 0
	if nMbx > 0 {
		nChains = rng.Intn(nMbx) + 1
		for i := 0; i < nChains; i++ {
			members := []string{}
			for j := 0; j < nMbx; j++ {
				if rng.Bool(0.6) {
					members = append(members, fmt.Sprintf("m%d", j))
				}
			}
			if len(members) == 0 {
				members = append(members, "m0")
			}
			fmt.Fprintf(&b, "chain c%d %s\n", i, strings.Join(members, " "))
		}
	}

	nPol := 1 + rng.Intn(5)
	for i := 0; i < nPol; i++ {
		prio := 100 - i*10
		fmt.Fprintf(&b, "policy %d match proto=tcp dport=%d", prio, 1+rng.Intn(65535))
		if rng.Bool(0.3) {
			fmt.Fprintf(&b, " dst=198.%d.%d.0/%d", rng.Intn(256), rng.Intn(256), 8*(1+rng.Intn(4)))
		}
		if nChains > 0 && rng.Bool(0.5) {
			fmt.Fprintf(&b, " via=c%d", rng.Intn(nChains))
		}
		if rng.Bool(0.3) {
			fmt.Fprintf(&b, " rate=%dbps", 100_000+rng.Intn(10_000_000))
		}
		switch rng.Intn(3) {
		case 0:
			b.WriteString(" action=forward\n")
		case 1:
			b.WriteString(" action=drop\n")
		default:
			b.WriteString(" action=tunnel:cloud\n")
		}
	}
	b.WriteString("policy 0 match any action=forward\n")

	p, err := Parse(b.String())
	if err != nil {
		panic(fmt.Sprintf("generator produced invalid config: %v\n%s", err, b.String()))
	}
	return p
}

// TestQuickFormatParseRoundTrip: Format∘Parse is the identity on
// structure and Format is idempotent, for arbitrary generated configs.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := genConfig(seed % 10000)
		q, err := Parse(p.Format())
		if err != nil {
			t.Logf("seed %d: reparse failed: %v", seed, err)
			return false
		}
		if q.Format() != p.Format() {
			t.Logf("seed %d: Format not idempotent", seed)
			return false
		}
		if len(q.Middleboxes) != len(p.Middleboxes) ||
			len(q.Chains) != len(p.Chains) ||
			len(q.Policies) != len(p.Policies) ||
			len(q.Sensors) != len(p.Sensors) {
			return false
		}
		// Validation outcome is stable across the round trip.
		return (len(p.Validate()) == 0) == (len(q.Validate()) == 0)
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValidConfigsCompile: every generated config that validates
// also compiles, with one rule pair per policy per covered address.
func TestQuickValidConfigsCompile(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := genConfig(seed % 10000)
		if len(p.Validate()) > 0 {
			return true // generator occasionally makes duplicate-match configs; skip
		}
		c, err := Compile(p, CompileOptions{Cookie: 1, UpstreamPort: 1})
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		if len(c.Rules) != p.Estimate().NumFlowRules {
			t.Logf("seed %d: %d rules, estimate %d", seed, len(c.Rules), p.Estimate().NumFlowRules)
			return false
		}
		// Priorities are non-increasing.
		last := 1 << 30
		for _, r := range c.Rules {
			if r.Priority > last {
				return false
			}
			last = r.Priority
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReduceAlwaysValid: reducing a valid config by any subset of
// its types yields a config that still validates.
func TestQuickReduceAlwaysValid(t *testing.T) {
	if err := quick.Check(func(seed uint64, mask uint8) bool {
		p := genConfig(seed % 10000)
		if len(p.Validate()) > 0 {
			return true
		}
		supported := map[string]bool{}
		i := 0
		for _, m := range p.Middleboxes {
			if mask&(1<<uint(i%8)) != 0 {
				supported[m.Type] = true
			}
			i++
		}
		r, _, err := Reduce(p, supported)
		if err != nil {
			return false
		}
		return len(r.Validate()) == 0
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoveredAddrs: device and every sensor appear exactly once.
func TestQuickCoveredAddrs(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := genConfig(seed % 10000)
		addrs := p.CoveredAddrs()
		if len(addrs) != 1+len(p.Sensors) {
			return false
		}
		seen := map[packet.IPv4Address]bool{}
		for _, a := range addrs {
			if seen[a] && len(p.Validate()) == 0 {
				return false // duplicates only allowed in invalid configs
			}
			seen[a] = true
		}
		return addrs[0] == p.Device
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEveryRulePinnedToCoveredAddr is the §3.3 isolation rule as a
// property of the compiler's output: whatever a PVNC says — `match any`,
// `dst=` prefixes, sensors — and whichever way it is compiled, every
// rule it emits matches only packets from, or only packets to, one
// exact address the deployment covers. openflow.FlowTable finds rules by
// that address; its list of rules pinned to none stays as short as the
// operator's own rule set only while this holds.
func TestQuickEveryRulePinnedToCoveredAddr(t *testing.T) {
	cache := NewTemplateCache()
	compilers := map[string]func(*PVNC, CompileOptions) (*Compiled, error){"Compile": Compile, "CompileShared": cache.CompileShared}
	exact := func(bits uint8) bool { return bits == 0 || bits >= 32 }
	if err := quick.Check(func(seed uint64) bool {
		p := genConfig(seed % 10000)
		if len(p.Validate()) > 0 {
			return true
		}
		covered := map[packet.IPv4Address]bool{}
		for _, a := range p.CoveredAddrs() {
			covered[a] = true
		}
		for name, compile := range compilers {
			c, err := compile(p, CompileOptions{Cookie: 1, UpstreamPort: 1, ChainNamespace: "ns"})
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, name, err)
				return false
			}
			for _, r := range c.Rules {
				m := r.Match
				bySrc := m.Fields&openflow.FieldSrcIP != 0 && exact(m.SrcBits) && covered[m.SrcIP]
				byDst := m.Fields&openflow.FieldDstIP != 0 && exact(m.DstBits) && covered[m.DstIP]
				if !bySrc && !byDst {
					t.Logf("seed %d: %s emitted %s, pinned to no covered address", seed, name, m.String())
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
