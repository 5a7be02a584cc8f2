package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/billing"
	"pvn/internal/discovery"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/trace"
	"pvn/internal/tunnel"
)

const cfgSrc = `
pvnc alice-roaming
owner alice
device 10.0.0.5
middlebox pii pii-detect mode=block secrets=hunter2
middlebox trk tracker-block domains=ads.example,tracker.net
chain secure pii trk
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 0 match any action=forward
`

type world struct {
	now     time.Duration
	vendor  *pki.CA
	dev     *Device
	network *AccessNetwork
}

func newWorld(t *testing.T, provider *discovery.ProviderPolicy) *world {
	t.Helper()
	w := &world{}
	vendorKey, _ := pki.GenerateKey(pki.NewDeterministicRand(100))
	w.vendor = pki.NewRootCA("Vendor", vendorKey, 0, 1<<40)

	cfg, err := pvnc.Parse(cfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewStandardNetwork(NetworkConfig{
		Name:       "isp1",
		Provider:   provider,
		Now:        func() time.Duration { return w.now },
		Vendor:     w.vendor,
		VendorSeed: 5,
		Tariff: billing.Tariff{
			PerModuleMicro: map[string]int64{"pii-detect": 100, "tracker-block": 50},
			PerMBMicro:     10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.network = n
	w.dev = &Device{
		ID:          "dev1",
		Addr:        packet.MustParseIPv4("10.0.0.5"),
		Config:      cfg,
		BudgetMicro: 10_000,
		Strategy:    discovery.StrategyReduce,
		Tunnels:     tunnel.NewTable(packet.MustParseIPv4("10.0.0.5")),
		Vendors:     pki.NewTrustStore(w.vendor.Cert),
	}
	return w
}

func fullProvider() *discovery.ProviderPolicy {
	return &discovery.ProviderPolicy{
		Provider:     "isp1",
		DeployServer: "pvn-host",
		Standards:    []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
		Supported:    map[string]int64{"pii-detect": 100, "tracker-block": 50},
	}
}

func TestFullLifecycle(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatalf("connect: %v (%v)", err, s.Messages)
	}
	if s.Mode != ModeInNetwork || s.Cookie == 0 {
		t.Fatalf("session %+v", s)
	}

	// Boot the middleboxes, then push traffic through.
	w.now = 50 * time.Millisecond
	dev := w.dev.Addr
	srv := packet.MustParseIPv4("93.184.216.34")

	leak, _ := trace.HTTPRequestPacket(dev, srv, 40000, "api.example", "/login", "password=hunter2")
	d, err := s.Process(leak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != openflow.VerdictDrop {
		t.Fatalf("PII leak verdict %v", d.Verdict)
	}

	clean, _ := trace.HTTPRequestPacket(dev, srv, 40001, "api.example", "/ok", "hello")
	d, _ = s.Process(clean, 0)
	if d.Verdict != openflow.VerdictOutput {
		t.Fatalf("clean verdict %v", d.Verdict)
	}

	trk, _ := trace.HTTPRequestPacket(dev, srv, 40002, "ads.example", "/pixel", "")
	d, _ = s.Process(trk, 0)
	if d.Verdict != openflow.VerdictDrop {
		t.Fatalf("tracker verdict %v", d.Verdict)
	}

	if len(s.Alerts()) < 2 { // pii + tracker
		t.Fatalf("alerts %v", s.Alerts())
	}

	// Audit: honest network passes.
	if err := s.Audit(10); err != nil {
		t.Fatalf("audit: %v", err)
	}

	inv, err := s.Teardown()
	if err != nil {
		t.Fatal(err)
	}
	if inv.TotalMicro < 150 { // module fees at least
		t.Fatalf("invoice %+v", inv)
	}
	if s.Mode != ModeBare {
		t.Fatal("mode after teardown")
	}
	// The data plane is clean again.
	if w.network.Server.Switch.Table.Len() != 0 {
		t.Fatal("rules left after teardown")
	}
}

func TestConnectPartialSupportReduces(t *testing.T) {
	p := fullProvider()
	delete(p.Supported, "tracker-block")
	w := newWorld(t, p)
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ModeInNetwork {
		t.Fatalf("mode %v", s.Mode)
	}
	if len(s.Decision.Dropped) == 0 {
		t.Fatal("nothing dropped despite partial support")
	}
	if len(s.Decision.FinalConfig.Middleboxes) != 1 {
		t.Fatalf("final middleboxes %d", len(s.Decision.FinalConfig.Middleboxes))
	}
}

func TestConnectFallsBackToTunnel(t *testing.T) {
	w := newWorld(t, nil) // network without PVN support
	w.dev.Tunnels.Add(&tunnel.Endpoint{
		Name: "cloud", Addr: packet.MustParseIPv4("198.51.100.50"),
		ExtraRTT: 20 * time.Millisecond, Trusted: true,
	})
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ModeTunneled || s.TunnelEndpoint.Name != "cloud" {
		t.Fatalf("session %+v", s)
	}
	// Traffic is encapsulated.
	pkt, _ := trace.HTTPRequestPacket(w.dev.Addr, packet.MustParseIPv4("1.1.1.1"), 40000, "h", "/", "x")
	d, err := s.Process(pkt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Verdict != openflow.VerdictTunnel {
		t.Fatalf("verdict %v", d.Verdict)
	}
	inner, _, err := tunnel.Decap(d.Data)
	if err != nil || len(inner) != len(pkt) {
		t.Fatalf("decap: %v", err)
	}
	if _, err := s.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectBareWhenNothingAvailable(t *testing.T) {
	w := newWorld(t, nil)
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if !errors.Is(err, ErrNoPVNSupport) {
		t.Fatalf("err=%v", err)
	}
	if s.Mode != ModeBare {
		t.Fatalf("mode %v", s.Mode)
	}
	// Bare sessions pass traffic through untouched.
	pkt, _ := trace.HTTPRequestPacket(w.dev.Addr, packet.MustParseIPv4("1.1.1.1"), 40000, "h", "/", "x")
	d, _ := s.Process(pkt, 0)
	if d.Verdict != openflow.VerdictOutput {
		t.Fatalf("verdict %v", d.Verdict)
	}
}

func TestConnectPicksCheapestNetwork(t *testing.T) {
	w := newWorld(t, fullProvider())
	cheapPolicy := fullProvider()
	cheapPolicy.Provider = "isp-cheap"
	cheapPolicy.Supported = map[string]int64{"pii-detect": 1, "tracker-block": 1}
	cheap, err := NewStandardNetwork(NetworkConfig{
		Name: "isp-cheap", Provider: cheapPolicy,
		Now: func() time.Duration { return w.now }, Vendor: w.vendor, VendorSeed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Connect(w.dev, []*AccessNetwork{w.network, cheap})
	if err != nil {
		t.Fatal(err)
	}
	if s.Network.Name != "isp-cheap" || s.Decision.Cost != 2 {
		t.Fatalf("picked %s at %d", s.Network.Name, s.Decision.Cost)
	}
}

func TestAuditDetectsLyingProvider(t *testing.T) {
	w := newWorld(t, fullProvider())
	w.network.AttestationLies = true
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	// A lying provider still passes the pure attestation check (it
	// signs the hash the device wants) — the point of the paper's
	// layered auditing. But if it also tampered with the deployment,
	// the manifest diverges; simulate tampering by tearing down the
	// chains behind the device's back.
	w.network.Server.Runtime.TeardownUser("alice")

	// Attestation alone: lies succeed (the known SGX-gap).
	if err := s.Audit(10); err != nil {
		t.Fatalf("lying attestation should verify cryptographically: %v", err)
	}

	// Cross-check against the manifest catches it.
	m := w.network.Server.BuildManifest("dev1")
	if m == nil {
		t.Fatal("no manifest")
	}
	if len(m.InstanceTypes) != 0 {
		t.Fatal("instances survived tampering")
	}
	// The device compares attested hash to manifest reality: chains
	// are gone though the attestation claimed otherwise.
	if len(m.Chains) == 0 {
		// Evidence assembled into a violation record.
		v := auditor.Violation{Kind: auditor.ViolationConfigTampering, Provider: "isp1", Detail: "chains missing"}
		if v.Kind != auditor.ViolationConfigTampering {
			t.Fatal("impossible")
		}
	}
}

func TestHonestAttestationFailsAfterTampering(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	// Provider silently swaps the deployment for a different config:
	// teardown + redeploy of an empty-ish config under the same device
	// would change the manifest hash. Simulate by mutating the stored
	// deployment's hash via teardown/re-deploy.
	w.network.Server.Teardown("dev1")
	other, _ := pvnc.Parse("pvnc other\nowner alice\ndevice 10.0.0.5\npolicy 0 match any action=forward")
	resp := w.network.Server.HandleDeploy(&discovery.DeployRequest{DeviceID: "dev1", PVNCSource: other.Source(), Payment: 0})
	if !resp.OK {
		t.Fatalf("redeploy: %s", resp.Reason)
	}
	err = s.Audit(10)
	if !errors.Is(err, auditor.ErrHashMismatch) {
		t.Fatalf("audit err=%v, want ErrHashMismatch", err)
	}
}

// TestRepeatAuditSkipsVendorSignature: the device checks the vendor's
// signature on the provider's key certificate once. A second audit runs
// no certificate-signature check and still verifies the attestation,
// and an audit against a provider that swapped its deployment still
// fails.
func TestRepeatAuditSkipsVendorSignature(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	for audit, want := range []int64{1, 0, 0} {
		before, _ := w.dev.Vendors.SignatureStats()
		if err := s.Audit(10 + int64(audit)); err != nil {
			t.Fatalf("audit %d: %v", audit+1, err)
		}
		if checks, _ := w.dev.Vendors.SignatureStats(); checks-before != want {
			t.Fatalf("audit %d ran %d certificate-signature checks, want %d", audit+1, checks-before, want)
		}
	}
	w.network.Server.Teardown("dev1")
	other, _ := pvnc.Parse("pvnc other\nowner alice\ndevice 10.0.0.5\npolicy 0 match any action=forward")
	if resp := w.network.Server.HandleDeploy(&discovery.DeployRequest{DeviceID: "dev1", PVNCSource: other.Source()}); !resp.OK {
		t.Fatalf("redeploy: %s", resp.Reason)
	}
	if err := s.Audit(20); !errors.Is(err, auditor.ErrHashMismatch) {
		t.Fatalf("audit of a swapped deployment: %v, want ErrHashMismatch", err)
	}
}

func TestAuditWithoutAttesterFails(t *testing.T) {
	w := newWorld(t, fullProvider())
	w.network.Attester = nil
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(10); err == nil {
		t.Fatal("audit passed without attester")
	}
}

func TestAuditOnNonDeployedSession(t *testing.T) {
	w := newWorld(t, nil)
	s, _ := Connect(w.dev, []*AccessNetwork{w.network})
	if err := s.Audit(0); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("err=%v", err)
	}
}

func TestSessionMessagesNarrate(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, _ := Connect(w.dev, []*AccessNetwork{w.network})
	joined := strings.Join(s.Messages, "\n")
	if !strings.Contains(joined, "discovery") || !strings.Contains(joined, "deployed") {
		t.Fatalf("messages %v", s.Messages)
	}
}

// TestFlowOfMatchesFullDecode: flowOf accepts exactly what packet.FlowOf
// finds in a full decode, a checksum-valid IPv4 header carrying TCP or
// UDP, and gives its canonical form.
func TestFlowOfMatchesFullDecode(t *testing.T) {
	dev, srv := packet.MustParseIPv4("10.0.0.5"), packet.MustParseIPv4("93.184.216.34")
	seg := func(src, dst packet.IPv4Address, proto byte, layers ...packet.SerializableLayer) []byte {
		t.Helper()
		ip := &packet.IPv4{Src: src, Dst: dst, Protocol: proto}
		for _, l := range layers {
			if l, ok := l.(interface{ SetNetworkLayerForChecksum(*packet.IPv4) }); ok {
				l.SetNetworkLayerForChecksum(ip)
			}
		}
		data, err := packet.SerializeToBytes(append([]packet.SerializableLayer{ip}, layers...)...)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	tcp := seg(dev, srv, packet.IPProtoTCP, &packet.TCP{SrcPort: 40000, DstPort: 443}, packet.Payload("x"))
	udp := seg(dev, srv, packet.IPProtoUDP, &packet.UDP{SrcPort: 5353, DstPort: 53}, packet.Payload("q"))
	badSum := bytes.Clone(tcp)
	badSum[8]-- // TTL, under the header checksum
	shortUDPLen := bytes.Clone(udp)
	shortUDPLen[25] = 4 // UDP length below its own header
	for name, data := range map[string][]byte{
		"tcp": tcp, "udp": udp, "reply": seg(srv, dev, packet.IPProtoTCP, &packet.TCP{SrcPort: 443, DstPort: 40000}),
		"icmp": seg(dev, srv, packet.IPProtoICMP, packet.Payload("ping")), "bad checksum": badSum, "udp length": shortUDPLen,
		"tcp truncated": tcp[:30], "no transport": tcp[:20], "empty": nil, "garbage": []byte("GET / HTTP/1.1"),
	} {
		want, wantOK := packet.FlowOf(packet.Decode(data, packet.LayerTypeIPv4))
		if got, ok := flowOf(data); ok != wantOK || wantOK && got != want.Canonical() {
			t.Errorf("%s: flowOf = %v, %v; a full decode gives %v, %v", name, got, ok, want.Canonical(), wantOK)
		}
	}
}

// TestSessionProcessSeenFlowAllocs: an in-network session allocates
// nothing for a packet of a flow it has already carried: the flow record
// reads the headers in place, and the switch hits its flow cache.
func TestSessionProcessSeenFlowAllocs(t *testing.T) {
	w := newWorld(t, fullProvider())
	s, err := Connect(w.dev, []*AccessNetwork{w.network})
	if err != nil || s.Mode != ModeInNetwork {
		t.Fatalf("connect: %v (%v)", err, s.Messages)
	}
	w.now = 50 * time.Millisecond
	ip := &packet.IPv4{Src: w.dev.Addr, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 443}
	tcp.SetNetworkLayerForChecksum(ip)
	pkt, err := packet.SerializeToBytes(ip, tcp, packet.Payload("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := s.Process(pkt, 0); err != nil || d.Verdict != openflow.VerdictOutput {
		t.Fatalf("first packet: %v, %v", d.Verdict, err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Process(pkt, 0) }); n != 0 {
		t.Errorf("Session.Process allocates %.1f per packet of a seen flow, want 0", n)
	}
}
