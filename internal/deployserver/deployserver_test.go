package deployserver

import (
	"strings"
	"testing"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
)

const cfgSrc = `
pvnc alice-cfg
owner alice
device 10.0.0.5
middlebox tlsv tls-verify
middlebox pii pii-detect mode=block secrets=hunter2
chain secure tlsv pii
policy 100 match proto=tcp dport=80 via=secure action=forward
policy 0 match any action=forward
`

// testServer builds a server with real switch, runtime and registry.
func testServer(t *testing.T, now *time.Duration) *Server {
	t.Helper()
	clock := func() time.Duration { return *now }
	rootKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	root := pki.NewRootCA("Root", rootKey, 0, 1_000_000)
	rt := middlebox.NewRuntime(clock)
	mbx.RegisterBuiltins(rt, mbx.Deps{TrustStore: pki.NewTrustStore(root.Cert), NowSeconds: func() int64 { return 0 }})
	sw := openflow.NewSwitch("edge", clock)
	sw.Chains = rt
	provider := &discovery.ProviderPolicy{
		Provider:     "isp1",
		DeployServer: "pvn-host",
		Standards:    []string{discovery.StandardMatchAction},
		Supported:    map[string]int64{"tls-verify": 100, "pii-detect": 200, "transcoder": 300},
	}
	return New(provider, sw, rt, clock)
}

func deployReq(t *testing.T, payment int64) *discovery.DeployRequest {
	t.Helper()
	cfg, err := pvnc.Parse(cfgSrc)
	if err != nil {
		t.Fatal(err)
	}
	// No OfferID: a walk-in deploy priced at the current book. Deploys
	// that do quote an offer must quote one the provider actually issued
	// (see lifecycle_test.go).
	return &discovery.DeployRequest{DeviceID: "dev1", PVNCSource: cfg.Source(), Payment: payment}
}

func TestDeployHappyPath(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	resp := s.HandleDeploy(deployReq(t, 300))
	if !resp.OK {
		t.Fatalf("NACK: %s", resp.Reason)
	}
	if resp.Cookie == 0 || !resp.DHCPRefresh {
		t.Fatalf("response %+v", resp)
	}
	dep := s.Deployment("dev1")
	if dep == nil || len(dep.InstanceIDs) != 2 || len(dep.Chains) != 1 {
		t.Fatalf("deployment %+v", dep)
	}
	if dep.ReadyAt != middlebox.DefaultBootDelay {
		t.Fatalf("ReadyAt %v", dep.ReadyAt)
	}
	if s.Switch.Table.Len() != 4 { // 2 directional + 2 scoped catch-all
		t.Fatalf("table has %d rules (want 4)", s.Switch.Table.Len())
	}
}

// mkHTTP is a POST of body from the device in cfgSrc to a web server.
func mkHTTP(body string) []byte {
	h := &packet.HTTP{IsRequest: true, Method: "POST", Path: "/login", Body: []byte(body)}
	h.SetHeader("Host", "site.example")
	msg, _ := packet.SerializeToBytes(h)
	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload(msg))
	return data
}

func TestDeployedDataPlaneEnforcesPolicy(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatalf("NACK: %s", resp.Reason)
	}
	now = 50 * time.Millisecond // after boot

	// A leaking request must be dropped by the PII chain.
	d := s.Switch.Process(mkHTTP("password=hunter2"), 0)
	if d.Verdict != openflow.VerdictDrop {
		t.Fatalf("leaking packet verdict %v", d.Verdict)
	}
	// Clean request flows upstream with middlebox delay applied.
	d = s.Switch.Process(mkHTTP("clean"), 0)
	if d.Verdict != openflow.VerdictOutput || d.Port != 1 {
		t.Fatalf("clean packet %+v", d)
	}
	if d.Delay < 2*middlebox.DefaultPerPacketDelay {
		t.Fatalf("chain delay %v too small", d.Delay)
	}
	alerts := s.Runtime.Alerts("alice")
	if len(alerts) == 0 {
		t.Fatal("no PII alert recorded")
	}
}

func TestDeployNACKs(t *testing.T) {
	now := time.Duration(0)
	cases := []struct {
		name    string
		mutate  func(r *discovery.DeployRequest)
		wantSub string
	}{
		{"garbage pvnc", func(r *discovery.DeployRequest) { r.PVNCSource = "junk directive" }, "unparseable"},
		{"invalid pvnc", func(r *discovery.DeployRequest) {
			r.PVNCSource = "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward"
		}, "invalid"},
		{"unsupported type", func(r *discovery.DeployRequest) {
			r.PVNCSource = strings.Replace(r.PVNCSource, "tls-verify", "quantum-box", 1)
		}, "not supported"},
		{"underpayment", func(r *discovery.DeployRequest) { r.Payment = 10 }, "below price"},
	}
	for _, c := range cases {
		s := testServer(t, &now)
		req := deployReq(t, 300)
		c.mutate(req)
		resp := s.HandleDeploy(req)
		if resp.OK {
			t.Errorf("%s: deployed", c.name)
			continue
		}
		if !strings.Contains(resp.Reason, c.wantSub) {
			t.Errorf("%s: reason %q missing %q", c.name, resp.Reason, c.wantSub)
		}
		if s.Switch.Table.Len() != 0 || len(s.Runtime.InstancesOf("alice")) != 0 {
			t.Errorf("%s: partial install left behind", c.name)
		}
		// A NACK takes no cookie: the next good deploy gets the first.
		if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK || resp.Cookie != 1 {
			t.Errorf("%s: deploy after the NACK: %+v, want cookie 1", c.name, resp)
		}
	}
}

// TestDeployRefusesUnknownBoxKey: a misspelt box key (secret= for
// secrets=) is NACKed by name and installs nothing, where it used to be
// ignored and deploy a pii-detect that protects no secret, so the
// leaking POST was forwarded. The correct key still drops it.
func TestDeployRefusesUnknownBoxKey(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	req := deployReq(t, 300)
	req.PVNCSource = strings.Replace(req.PVNCSource, "secrets=hunter2", "secret=hunter2", 1)
	resp := s.HandleDeploy(req)
	if resp.OK || !strings.Contains(resp.Reason, `unknown config key "secret" for pii-detect`) {
		t.Fatalf("misspelt key: ok=%v reason %q, want a NACK naming the key", resp.OK, resp.Reason)
	}
	if s.Switch.Table.Len() != 0 || len(s.Runtime.InstanceIDs()) != 0 {
		t.Fatal("the refused deploy left rules or instances behind")
	}
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatalf("secrets=: NACK %s", resp.Reason)
	}
	now = 50 * time.Millisecond // after boot
	if d := s.Switch.Process(mkHTTP("password=hunter2"), 0); d.Verdict != openflow.VerdictDrop {
		t.Fatalf("leaking POST verdict %v, want a drop", d.Verdict)
	}
}

// TestDeployRefusesUnboundedSecrets: pii-detect's secret list is
// bounded, since its owner's every packet pays a search per secret on a
// worker other owners share. A list over the bound, an oversize secret
// or an empty entry is NACKed by name and installs nothing.
func TestDeployRefusesUnboundedSecrets(t *testing.T) {
	now := time.Duration(0)
	for _, c := range []struct{ secrets, why string }{
		{"hunter2" + strings.Repeat(",s", 64), "secrets: more than 64 entries"},
		{"hunter2," + strings.Repeat("s", 257), "secrets: entry 2 is 257 bytes, over 256"},
		{"hunter2,,x", "secrets: entry 2 is empty"},
	} {
		s := testServer(t, &now)
		req := deployReq(t, 300)
		req.PVNCSource = strings.Replace(req.PVNCSource, "secrets=hunter2", "secrets="+c.secrets, 1)
		if resp := s.HandleDeploy(req); resp.OK || !strings.Contains(resp.Reason, `instantiate "pii-detect": `+c.why) {
			t.Errorf("%.30s…: ok=%v reason %q, want a NACK with %q", c.secrets, resp.OK, resp.Reason, c.why)
		}
		if s.Switch.Table.Len() != 0 || len(s.Runtime.InstanceIDs()) != 0 {
			t.Errorf("%.30s…: the refused deploy left rules or instances behind", c.secrets)
		}
		if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
			t.Errorf("deploy after the NACK: %s", resp.Reason)
		}
	}
}

// TestDoubleDeployIdempotent: a walk-in redeploy of the PVNC already
// installed is re-ACKed with the original cookie and installs nothing
// twice (a second deployment for the same device never coexists with
// the first).
func TestDoubleDeployIdempotent(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	first := s.HandleDeploy(deployReq(t, 300))
	if !first.OK {
		t.Fatal(first.Reason)
	}
	rules := s.Switch.Table.Len()
	second := s.HandleDeploy(deployReq(t, 300))
	if !second.OK || second.Cookie != first.Cookie {
		t.Fatalf("second deploy: %+v (want re-ACK of cookie %d)", second, first.Cookie)
	}
	if s.Switch.Table.Len() != rules {
		t.Fatalf("double deploy grew the table: %d -> %d", rules, s.Switch.Table.Len())
	}
}

func TestRollbackOnMemoryExhaustion(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.Runtime.MemoryCapBytes = middlebox.DefaultMemoryBytes // room for 1 of 2
	resp := s.HandleDeploy(deployReq(t, 300))
	if resp.OK {
		t.Fatal("deploy succeeded beyond memory cap")
	}
	if s.Runtime.MemoryUsed() != 0 {
		t.Fatalf("leaked %d bytes after rollback", s.Runtime.MemoryUsed())
	}
	if s.Switch.Table.Len() != 0 {
		t.Fatal("leaked flow rules after rollback")
	}
}

func TestUsageAndTeardown(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatal(resp.Reason)
	}
	now = 50 * time.Millisecond

	dev := packet.MustParseIPv4("10.0.0.5")
	ip := &packet.IPv4{Src: dev, Dst: packet.MustParseIPv4("1.1.1.1"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 4000, DstPort: 9999}
	tcp.SetNetworkLayerForChecksum(ip)
	data, _ := packet.SerializeToBytes(ip, tcp, packet.Payload("x"))
	for i := 0; i < 5; i++ {
		s.Switch.Process(data, 0)
	}
	pkts, bytes, ok := s.Usage("dev1")
	if !ok || pkts != 5 || bytes != int64(5*len(data)) {
		t.Fatalf("usage %d/%d ok=%v", pkts, bytes, ok)
	}

	pkts, _, err := s.Teardown("dev1")
	if err != nil || pkts != 5 {
		t.Fatalf("teardown: %d %v", pkts, err)
	}
	if s.Switch.Table.Len() != 0 {
		t.Fatal("rules survived teardown")
	}
	if len(s.Runtime.InstancesOf("alice")) != 0 {
		t.Fatal("instances survived teardown")
	}
	if _, _, err := s.Teardown("dev1"); err == nil {
		t.Fatal("double teardown succeeded")
	}
	// Redeploy after teardown works.
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatalf("redeploy: %s", resp.Reason)
	}
}

func TestManifestReflectsReality(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	if resp := s.HandleDeploy(deployReq(t, 300)); !resp.OK {
		t.Fatal(resp.Reason)
	}
	m := s.BuildManifest("dev1")
	if m == nil {
		t.Fatal("no manifest")
	}
	cfg, _ := pvnc.Parse(cfgSrc)
	if m.PVNCHash != cfg.Hash() {
		t.Fatal("manifest hash mismatch")
	}
	if len(m.InstanceTypes) != 2 || m.RuleCount != 4 || len(m.Chains) != 1 {
		t.Fatalf("manifest %+v", m)
	}
	if s.BuildManifest("ghost") != nil {
		t.Fatal("manifest for unknown device")
	}
}

func TestHandleDMDelegates(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	cfg, _ := pvnc.Parse(cfgSrc)
	n := discovery.NewNegotiator("dev1", cfg, 1000, discovery.StrategyStrict)
	offer := s.HandleDM(n.MakeDM())
	if offer == nil || offer.Provider != "isp1" {
		t.Fatalf("offer %+v", offer)
	}
}
