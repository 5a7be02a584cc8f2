// Package pvnc implements Personal Virtual Network Configurations: the
// user-readable configuration format the paper proposes (§3.1, Fig 1a),
// its semantic validation ("prove that any given network configuration is
// valid according to important invariants", §3.2), and the compiler that
// lowers a PVNC to match/action flow rules, meter definitions and a
// middlebox deployment plan.
//
// The format is line-oriented:
//
//	pvnc alice-roaming
//	owner alice
//	device 10.0.0.5
//
//	middlebox tlsv tls-verify mode=block
//	middlebox pii  pii-detect mode=redact secrets=hunter2
//	chain secure tlsv pii
//
//	policy 100 match proto=tcp dport=443 via=secure action=forward
//	policy  90 match proto=tcp dport=80  via=secure action=forward
//	policy  80 match dst=203.0.113.0/24 rate=1.5mbps action=forward
//	policy  70 match dport=993 action=tunnel:cloud
//	policy   0 match any action=forward
//
// Empty lines and '#' comments are ignored. Exactly one priority-0
// catch-all policy is required (the default route for unmatched traffic).
package pvnc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pvn/internal/packet"
)

// Middlebox declares one middlebox instance the PVNC needs.
type Middlebox struct {
	// LocalName is the PVNC-scoped identifier.
	LocalName string
	// Type is the registry type, e.g. "tls-verify".
	Type string
	// Config is passed to the middlebox factory.
	Config map[string]string
}

// Chain is an ordered list of middlebox local names.
type Chain struct {
	Name    string
	Members []string
}

// MatchSpec is a policy's traffic selector.
type MatchSpec struct {
	// Any matches all traffic (the default policy).
	Any     bool
	Proto   string // "tcp", "udp" or ""
	SrcPort uint16
	DstPort uint16
	Dst     packet.IPv4Address
	DstBits uint8
	hasDst  bool
}

// HasDst reports whether a destination prefix was specified.
func (m *MatchSpec) HasDst() bool { return m.hasDst }

// ActionKind is what a policy does with matching traffic.
type ActionKind string

// Policy actions.
const (
	ActForward ActionKind = "forward"
	ActDrop    ActionKind = "drop"
	ActTunnel  ActionKind = "tunnel"
)

// Policy is one prioritized traffic rule.
type Policy struct {
	Priority int
	Match    MatchSpec
	// Via names a chain matching traffic traverses first ("" = none).
	Via string
	// RateBps shapes matching traffic when > 0.
	RateBps float64
	Action  ActionKind
	// TunnelName is the ActTunnel destination.
	TunnelName string
}

// PVNC is a parsed configuration.
type PVNC struct {
	Name   string
	Owner  string
	Device packet.IPv4Address
	// Sensors are additional devices of the same user (IoT cameras,
	// microphones, presence sensors) whose traffic the policies also
	// cover (§2.3: "privacy policies that apply not only to their own
	// network traffic, but also to traffic generated by sensors").
	Sensors []packet.IPv4Address

	Middleboxes []Middlebox
	Chains      []Chain
	Policies    []Policy

	source string
}

// CoveredAddrs returns the device plus all sensors — every address the
// PVN interposes on.
func (p *PVNC) CoveredAddrs() []packet.IPv4Address {
	out := make([]packet.IPv4Address, 0, 1+len(p.Sensors))
	if !p.Device.IsZero() {
		out = append(out, p.Device)
	}
	return append(out, p.Sensors...)
}

// Hash returns the SHA-256 of the canonical source text, the identity
// used in attestations and the PVN store.
func (p *PVNC) Hash() string {
	sum := sha256.Sum256([]byte(p.source))
	return hex.EncodeToString(sum[:])
}

// Source returns the original text the PVNC was parsed from.
func (p *PVNC) Source() string { return p.source }

// ParseError locates a syntax error.
type ParseError struct {
	Line   int
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("pvnc: line %d: %s", e.Line, e.Reason)
}

func perr(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Reason: fmt.Sprintf(format, args...)}
}

// Parse reads a PVNC from its text form. Parse only checks syntax; call
// Validate for semantic invariants.
func Parse(src string) (*PVNC, error) {
	p := &PVNC{source: src}
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		lineNo := i + 1
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "pvnc":
			if len(fields) != 2 {
				return nil, perr(lineNo, "pvnc requires a name")
			}
			p.Name = fields[1]
		case "owner":
			if len(fields) != 2 {
				return nil, perr(lineNo, "owner requires a user id")
			}
			p.Owner = fields[1]
		case "device":
			if len(fields) != 2 {
				return nil, perr(lineNo, "device requires an address")
			}
			addr, err := packet.ParseIPv4(fields[1])
			if err != nil {
				return nil, perr(lineNo, "bad device address %q", fields[1])
			}
			p.Device = addr
		case "sensor":
			if len(fields) != 2 {
				return nil, perr(lineNo, "sensor requires an address")
			}
			addr, err := packet.ParseIPv4(fields[1])
			if err != nil {
				return nil, perr(lineNo, "bad sensor address %q", fields[1])
			}
			p.Sensors = append(p.Sensors, addr)
		case "middlebox":
			if len(fields) < 3 {
				return nil, perr(lineNo, "middlebox requires: middlebox <name> <type> [k=v ...]")
			}
			mb := Middlebox{LocalName: fields[1], Type: fields[2], Config: map[string]string{}}
			for _, kv := range fields[3:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, perr(lineNo, "middlebox config %q is not key=value", kv)
				}
				mb.Config[k] = v
			}
			p.Middleboxes = append(p.Middleboxes, mb)
		case "chain":
			if len(fields) < 3 {
				return nil, perr(lineNo, "chain requires: chain <name> <mbx> [mbx ...]")
			}
			p.Chains = append(p.Chains, Chain{Name: fields[1], Members: fields[2:]})
		case "policy":
			pol, err := parsePolicy(fields, lineNo)
			if err != nil {
				return nil, err
			}
			p.Policies = append(p.Policies, pol)
		default:
			return nil, perr(lineNo, "unknown directive %q", fields[0])
		}
	}
	return p, nil
}

func parsePolicy(fields []string, lineNo int) (Policy, error) {
	// policy <prio> match <spec...> [via=...] [rate=...] action=<act>
	if len(fields) < 4 || fields[2] != "match" {
		return Policy{}, perr(lineNo, "policy requires: policy <prio> match <spec> ... action=<act>")
	}
	prio, err := strconv.Atoi(fields[1])
	if err != nil || prio < 0 {
		return Policy{}, perr(lineNo, "bad priority %q", fields[1])
	}
	pol := Policy{Priority: prio}
	seenAction := false
	for _, tok := range fields[3:] {
		switch {
		case tok == "any":
			pol.Match.Any = true
		case strings.HasPrefix(tok, "proto="):
			v := tok[len("proto="):]
			if v != "tcp" && v != "udp" {
				return Policy{}, perr(lineNo, "bad proto %q", v)
			}
			pol.Match.Proto = v
		case strings.HasPrefix(tok, "sport="):
			v, err := parsePort(tok[len("sport="):])
			if err != nil {
				return Policy{}, perr(lineNo, "%v", err)
			}
			pol.Match.SrcPort = v
		case strings.HasPrefix(tok, "dport="):
			v, err := parsePort(tok[len("dport="):])
			if err != nil {
				return Policy{}, perr(lineNo, "%v", err)
			}
			pol.Match.DstPort = v
		case strings.HasPrefix(tok, "dst="):
			addr, bits, err := parsePrefix(tok[len("dst="):])
			if err != nil {
				return Policy{}, perr(lineNo, "%v", err)
			}
			pol.Match.Dst, pol.Match.DstBits, pol.Match.hasDst = addr, bits, true
		case strings.HasPrefix(tok, "via="):
			pol.Via = tok[len("via="):]
		case strings.HasPrefix(tok, "rate="):
			r, err := parseRate(tok[len("rate="):])
			if err != nil {
				return Policy{}, perr(lineNo, "%v", err)
			}
			pol.RateBps = r
		case strings.HasPrefix(tok, "action="):
			act := tok[len("action="):]
			seenAction = true
			switch {
			case act == string(ActForward):
				pol.Action = ActForward
			case act == string(ActDrop):
				pol.Action = ActDrop
			case strings.HasPrefix(act, "tunnel:"):
				pol.Action = ActTunnel
				pol.TunnelName = act[len("tunnel:"):]
				if pol.TunnelName == "" {
					return Policy{}, perr(lineNo, "tunnel action requires a name")
				}
			default:
				return Policy{}, perr(lineNo, "unknown action %q", act)
			}
		default:
			return Policy{}, perr(lineNo, "unknown policy token %q", tok)
		}
	}
	if !seenAction {
		return Policy{}, perr(lineNo, "policy missing action=")
	}
	return pol, nil
}

func parsePort(s string) (uint16, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 || v > 65535 {
		return 0, fmt.Errorf("bad port %q", s)
	}
	return uint16(v), nil
}

func parsePrefix(s string) (packet.IPv4Address, uint8, error) {
	addrStr, bitsStr, has := strings.Cut(s, "/")
	addr, err := packet.ParseIPv4(addrStr)
	if err != nil {
		return addr, 0, fmt.Errorf("bad address %q", s)
	}
	if !has {
		return addr, 32, nil
	}
	bits, err := strconv.Atoi(bitsStr)
	if err != nil || bits < 1 || bits > 32 {
		return addr, 0, fmt.Errorf("bad prefix length %q", bitsStr)
	}
	return addr, uint8(bits), nil
}

// parseRate accepts "1500000", "1.5mbps", "200kbps", "1gbps", at least
// 1 bps: Format writes whole bps, and "0" does not parse.
func parseRate(s string) (float64, error) {
	s = strings.ToLower(s)
	mult := 1.0
	for _, suf := range []struct {
		name string
		mult float64
	}{{"gbps", 1e9}, {"mbps", 1e6}, {"kbps", 1e3}, {"bps", 1}} {
		if strings.HasSuffix(s, suf.name) {
			s = strings.TrimSuffix(s, suf.name)
			mult = suf.mult
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v*mult >= 1) {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return v * mult, nil
}

// Validate checks the semantic invariants the paper requires before a
// configuration may be deployed. It returns all violations, not just the
// first.
func (p *PVNC) Validate() []error {
	var errs []error
	if p.Name == "" {
		errs = append(errs, fmt.Errorf("pvnc: missing name"))
	}
	if p.Owner == "" {
		errs = append(errs, fmt.Errorf("pvnc: missing owner"))
	}
	if p.Device.IsZero() {
		errs = append(errs, fmt.Errorf("pvnc: missing device address"))
	}
	seenAddr := map[packet.IPv4Address]bool{p.Device: true}
	for _, s := range p.Sensors {
		if seenAddr[s] {
			errs = append(errs, fmt.Errorf("pvnc: duplicate sensor address %s", s))
		}
		seenAddr[s] = true
	}

	mbx := map[string]bool{}
	for _, m := range p.Middleboxes {
		if mbx[m.LocalName] {
			errs = append(errs, fmt.Errorf("pvnc: duplicate middlebox %q", m.LocalName))
		}
		mbx[m.LocalName] = true
	}
	chains := map[string]bool{}
	for _, c := range p.Chains {
		if chains[c.Name] {
			errs = append(errs, fmt.Errorf("pvnc: duplicate chain %q", c.Name))
		}
		chains[c.Name] = true
		for _, member := range c.Members {
			if !mbx[member] {
				errs = append(errs, fmt.Errorf("pvnc: chain %q references undefined middlebox %q", c.Name, member))
			}
		}
	}

	prios := map[int]int{}
	defaults := 0
	for i, pol := range p.Policies {
		if prev, dup := prios[pol.Priority]; dup {
			errs = append(errs, fmt.Errorf("pvnc: policies %d and %d share priority %d", prev, i, pol.Priority))
		}
		prios[pol.Priority] = i
		if pol.Via != "" && !chains[pol.Via] {
			errs = append(errs, fmt.Errorf("pvnc: policy %d routes via undefined chain %q", i, pol.Via))
		}
		if pol.Match.Any && pol.Priority == 0 {
			defaults++
		}
		if pol.Match.Any && pol.Priority != 0 {
			errs = append(errs, fmt.Errorf("pvnc: catch-all policy %d must have priority 0", i))
		}
		if pol.Action == ActTunnel && pol.TunnelName == "" {
			errs = append(errs, fmt.Errorf("pvnc: policy %d tunnels nowhere", i))
		}
	}
	if defaults != 1 {
		errs = append(errs, fmt.Errorf("pvnc: need exactly one priority-0 catch-all policy, have %d", defaults))
	}

	// Shadowing: two policies with identical matches — the lower-priority
	// one can never fire.
	for i := 0; i < len(p.Policies); i++ {
		for j := i + 1; j < len(p.Policies); j++ {
			if p.Policies[i].Match == p.Policies[j].Match && !p.Policies[i].Match.Any {
				errs = append(errs, fmt.Errorf("pvnc: policy %d shadows policy %d (identical match)", i, j))
			}
		}
	}
	return errs
}

// Estimate summarizes the resources a PVNC requests, the figure the
// discovery protocol quotes to providers (§3.1).
type Estimate struct {
	NumMiddleboxes int
	NumChains      int
	NumPolicies    int
	NumFlowRules   int
	// MemoryBytes assumes the default per-instance footprint; providers
	// reprice with their own registry's numbers.
	MemoryBytes int64
}

// Estimate computes the resource request.
func (p *PVNC) Estimate() Estimate {
	const perInstance = 6 << 20
	covered := 1 + len(p.Sensors)
	rules := 0
	for range p.Policies {
		rules += 2 * covered // outbound + inbound per covered address
	}
	return Estimate{
		NumMiddleboxes: len(p.Middleboxes),
		NumChains:      len(p.Chains),
		NumPolicies:    len(p.Policies),
		NumFlowRules:   rules,
		MemoryBytes:    int64(len(p.Middleboxes)) * perInstance,
	}
}

// SortedPolicies returns the policies ordered by descending priority.
func (p *PVNC) SortedPolicies() []Policy {
	out := append([]Policy(nil), p.Policies...)
	sort.Slice(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}
