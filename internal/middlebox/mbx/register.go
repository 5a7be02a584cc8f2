package mbx

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pvn/internal/dnssim"
	"pvn/internal/middlebox"
	"pvn/internal/packet"
	"pvn/internal/pki"
)

// Deps carries the environment the security middleboxes verify against.
type Deps struct {
	// TrustStore backs tls-verify.
	TrustStore *pki.TrustStore
	// NowSeconds supplies certificate-validity time.
	NowSeconds func() int64
	// Anchors and OpenResolvers back dns-validate.
	Anchors       dnssim.TrustAnchors
	OpenResolvers []*dnssim.Resolver
}

// TCPProxy marks flows for split-TCP treatment. The connection splitting
// itself is modelled by tcpsim (flow level); the box exists so PVNCs can
// place the proxy in a chain, count its flows and charge its CPU.
type TCPProxy struct {
	Flows map[packet.Flow]bool
}

// NewTCPProxy builds the marker proxy.
func NewTCPProxy() *TCPProxy { return &TCPProxy{Flows: make(map[packet.Flow]bool)} }

// Name implements middlebox.Box.
func (t *TCPProxy) Name() string { return "tcp-proxy" }

// Process implements middlebox.Box.
func (t *TCPProxy) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	if f, ok := packet.FlowOf(p); ok {
		t.Flows[f.Canonical()] = true
	}
	return data, middlebox.VerdictPass, nil
}

// RegisterBuiltins registers every built-in middlebox type with the
// runtime, using the paper's cited cost defaults except where a function
// is plainly heavier (transcoding) or lighter (classification).
func RegisterBuiltins(rt *middlebox.Runtime, deps Deps) {
	rt.Register(&middlebox.Spec{
		Type:       "tls-verify",
		Security:   true,
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			if deps.TrustStore == nil {
				return nil, fmt.Errorf("tls-verify requires a trust store")
			}
			b := NewTLSVerify(deps.TrustStore, deps.NowSeconds)
			b.WarnOnly = cfg["mode"] == "warn"
			return b, nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:       "dns-validate",
		Security:   true,
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			quorum := 0
			if q := cfg["quorum"]; q != "" {
				v, err := strconv.Atoi(q)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("bad quorum %q", q)
				}
				quorum = v
			}
			return NewDNSValidate(deps.Anchors, deps.OpenResolvers, quorum), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:       "pii-detect",
		Security:   true,
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			mode := PIIMode(cfg["mode"])
			switch mode {
			case "", PIIAlert, PIIBlock, PIIRedact:
			default:
				return nil, fmt.Errorf("bad pii mode %q", cfg["mode"])
			}
			var secrets []string
			if s := cfg["secrets"]; s != "" {
				secrets = strings.Split(s, ",")
			}
			return NewPIIDetect(mode, secrets), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:           "classifier",
		FailPolicy:     middlebox.FailOpen,    // losing classification loses a speedup, not safety
		PerPacketDelay: 10 * time.Microsecond, // header-only work
		New: func(cfg map[string]string) (middlebox.Box, error) {
			return NewClassifier(), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:           "transcoder",
		FailPolicy:     middlebox.FailOpen,
		PerPacketDelay: 500 * time.Microsecond, // media re-encode is heavy
		MemoryBytes:    32 << 20,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			ratio := 0.0
			if r := cfg["ratio"]; r != "" {
				v, err := strconv.ParseFloat(r, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ratio %q", r)
				}
				ratio = v
			}
			return NewTranscoder(ratio), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:       "tracker-block",
		Security:   true,
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			var domains []string
			if d := cfg["domains"]; d != "" {
				domains = strings.Split(d, ",")
			}
			return NewTrackerBlock(domains), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:       "malware-scan",
		Security:   true,
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			var sigs [][]byte
			if s := cfg["signatures"]; s != "" {
				for _, sig := range strings.Split(s, ",") {
					sigs = append(sigs, []byte(sig))
				}
			}
			return NewMalwareScan(sigs), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:           "compressor",
		FailPolicy:     middlebox.FailOpen,
		PerPacketDelay: 100 * time.Microsecond,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			return NewCompressor(), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:        "prefetcher",
		FailPolicy:  middlebox.FailOpen,
		MemoryBytes: 16 << 20, // cache space
		New: func(cfg map[string]string) (middlebox.Box, error) {
			return NewPrefetcher(), nil
		},
	})
	rt.Register(&middlebox.Spec{
		Type:       "tcp-proxy",
		FailPolicy: middlebox.FailOpen,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			return NewTCPProxy(), nil
		},
	})
	rt.Register(&middlebox.Spec{
		// Untrusted user code defaults to fail-closed: whatever the
		// script was filtering must not silently flow when it breaks.
		Type:       "user-script",
		FailPolicy: middlebox.FailClosed,
		New: func(cfg map[string]string) (middlebox.Box, error) {
			src := cfg["script"]
			if src == "" {
				return nil, fmt.Errorf("user-script requires cfg[script]")
			}
			return CompileScript(src)
		},
	})
	rt.Register(&middlebox.Spec{
		// Deterministic fault injection for supervision tests and
		// experiments (E14); see FaultyBox.
		Type: "faulty",
		New: func(cfg map[string]string) (middlebox.Box, error) {
			plan, seed, err := faultPlanFromConfig(cfg)
			if err != nil {
				return nil, err
			}
			return NewFaultyBox(nil, plan, seed), nil
		},
	})
	registerOffload(rt)
}
