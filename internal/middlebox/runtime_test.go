package middlebox

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pvn/internal/packet"
)

// passBox passes everything, optionally tagging the payload.
type passBox struct{ tag byte }

func (p *passBox) Name() string { return "pass" }
func (p *passBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	if p.tag != 0 {
		return append(append([]byte(nil), data...), p.tag), VerdictPass, nil
	}
	return data, VerdictPass, nil
}

// dropBox drops everything.
type dropBox struct{}

func (dropBox) Name() string { return "drop" }
func (dropBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	return nil, VerdictDrop, nil
}

// alertBox alerts on every packet.
type alertBox struct{}

func (alertBox) Name() string { return "alert" }
func (alertBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	ctx.Alert("test-alert", "saw a packet")
	return data, VerdictPass, nil
}

func testRuntime(now *time.Duration) *Runtime {
	rt := NewRuntime(func() time.Duration { return *now })
	rt.Register(&Spec{Type: "pass", Keys: []string{"tag"}, New: func(cfg map[string]string) (Box, error) {
		var tag byte
		if cfg["tag"] != "" {
			tag = cfg["tag"][0]
		}
		return &passBox{tag: tag}, nil
	}})
	rt.Register(&Spec{Type: "drop", New: func(cfg map[string]string) (Box, error) { return dropBox{}, nil }})
	rt.Register(&Spec{Type: "alert", New: func(cfg map[string]string) (Box, error) { return alertBox{}, nil }})
	return rt
}

func ipPacket(t *testing.T, src, dst string) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: packet.MustParseIPv4(src), Dst: packet.MustParseIPv4(dst), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 1000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// boot advances now past every instance's boot delay.
func boot(now *time.Duration) { *now += DefaultBootDelay + time.Millisecond }

func TestInstantiateDefaultsAndMemory(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	inst, err := rt.Instantiate("alice", "pass", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ReadyAt != DefaultBootDelay {
		t.Fatalf("ReadyAt %v, want %v", inst.ReadyAt, DefaultBootDelay)
	}
	if rt.MemoryUsed() != DefaultMemoryBytes {
		t.Fatalf("memory %d, want %d", rt.MemoryUsed(), DefaultMemoryBytes)
	}
}

func TestInstantiateUnknownType(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	if _, err := rt.Instantiate("alice", "nope", nil); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err=%v", err)
	}
}

func TestMemoryCapEnforced(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	rt.MemoryCapBytes = 2 * DefaultMemoryBytes
	if _, err := rt.Instantiate("a", "pass", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Instantiate("a", "pass", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Instantiate("a", "pass", nil); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("third instance err=%v, want ErrMemoryExceeded", err)
	}
	// Terminating frees capacity.
	insts := rt.InstancesOf("a")
	if err := rt.Terminate(insts[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Instantiate("a", "pass", nil); err != nil {
		t.Fatalf("after terminate: %v", err)
	}
}

func TestChainExecutionOrderAndTransform(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", map[string]string{"tag": "A"})
	i2, _ := rt.Instantiate("alice", "pass", map[string]string{"tag": "B"})
	if _, err := rt.BuildChain("alice", "c", []string{i1.ID, i2.ID}, nil); err != nil {
		t.Fatal(err)
	}
	boot(&now)
	in := ipPacket(t, "10.0.0.1", "10.0.0.2")
	out, delay, err := rt.ExecuteChain("alice/c", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in)+2 || out[len(out)-2] != 'A' || out[len(out)-1] != 'B' {
		t.Fatal("chain transforms not applied in order")
	}
	if delay != 2*DefaultPerPacketDelay {
		t.Fatalf("delay %v, want %v", delay, 2*DefaultPerPacketDelay)
	}
	if i1.Packets != 1 || i2.Packets != 1 {
		t.Fatalf("packet counters %d/%d", i1.Packets, i2.Packets)
	}
}

func TestChainDropStopsPipeline(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "drop", nil)
	i2, _ := rt.Instantiate("alice", "pass", nil)
	rt.BuildChain("alice", "c", []string{i1.ID, i2.ID}, nil)
	boot(&now)
	out, _, err := rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatal("dropped packet returned non-nil")
	}
	if i1.Drops != 1 {
		t.Fatalf("drop counter %d", i1.Drops)
	}
	if i2.Packets != 0 {
		t.Fatal("downstream box saw a dropped packet")
	}
}

func TestChainNotBootedYet(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", nil)
	rt.BuildChain("alice", "c", []string{i1.ID}, nil)
	// Do not advance time: instance still booting.
	_, _, err := rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "10.0.0.2"))
	if !errors.Is(err, ErrNotBooted) {
		t.Fatalf("err=%v, want ErrNotBooted", err)
	}
}

func TestCrossUserChainRejected(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	mallory, _ := rt.Instantiate("mallory", "pass", nil)
	if _, err := rt.BuildChain("alice", "c", []string{mallory.ID}, nil); !errors.Is(err, ErrCrossUser) {
		t.Fatalf("err=%v, want ErrCrossUser", err)
	}
}

func TestDuplicateChainRejected(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", nil)
	if _, err := rt.BuildChain("alice", "c", []string{i1.ID}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BuildChain("alice", "c", []string{i1.ID}, nil); !errors.Is(err, ErrDuplicateChain) {
		t.Fatalf("err=%v, want ErrDuplicateChain", err)
	}
}

func TestIsolationByOwnerAddress(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", nil)
	owner := packet.MustParseIPv4("10.0.0.1")
	rt.BuildChain("alice", "c", []string{i1.ID}, []packet.IPv4Address{owner})
	boot(&now)

	// Alice's own traffic (as source and as destination) passes.
	if _, _, err := rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "8.8.8.8")); err != nil {
		t.Fatalf("own src traffic rejected: %v", err)
	}
	if _, _, err := rt.ExecuteChain("alice/c", ipPacket(t, "8.8.8.8", "10.0.0.1")); err != nil {
		t.Fatalf("own dst traffic rejected: %v", err)
	}
	// Someone else's traffic is refused.
	if _, _, err := rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.99", "8.8.8.8")); !errors.Is(err, ErrIsolation) {
		t.Fatalf("foreign traffic err=%v, want ErrIsolation", err)
	}
}

func TestUnknownChain(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	if _, _, err := rt.ExecuteChain("alice/none", nil); !errors.Is(err, ErrUnknownChain) {
		t.Fatalf("err=%v", err)
	}
}

func TestAlertsRecordedPerOwner(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	ia, _ := rt.Instantiate("alice", "alert", nil)
	ib, _ := rt.Instantiate("bob", "alert", nil)
	rt.BuildChain("alice", "c", []string{ia.ID}, nil)
	rt.BuildChain("bob", "c", []string{ib.ID}, nil)
	boot(&now)
	rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "10.0.0.2"))
	rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "10.0.0.2"))
	rt.ExecuteChain("bob/c", ipPacket(t, "10.0.0.3", "10.0.0.4"))

	if got := len(rt.Alerts("alice")); got != 2 {
		t.Fatalf("alice alerts %d, want 2", got)
	}
	if got := len(rt.Alerts("bob")); got != 1 {
		t.Fatalf("bob alerts %d, want 1", got)
	}
	if got := len(rt.Alerts("")); got != 3 {
		t.Fatalf("all alerts %d, want 3", got)
	}
	if ia.Alerts != 2 {
		t.Fatalf("instance alert counter %d", ia.Alerts)
	}
}

func TestTeardownUser(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	rt.Instantiate("alice", "pass", nil)
	rt.Instantiate("alice", "pass", nil)
	ib, _ := rt.Instantiate("bob", "pass", nil)
	rt.BuildChain("bob", "c", []string{ib.ID}, nil)

	if n := rt.TeardownUser("alice"); n != 2 {
		t.Fatalf("tore down %d instances, want 2", n)
	}
	if rt.MemoryUsed() != DefaultMemoryBytes {
		t.Fatalf("memory %d after teardown, want one instance's worth", rt.MemoryUsed())
	}
	if rt.Chain("bob", "c") == nil {
		t.Fatal("bob's chain destroyed by alice's teardown")
	}
	if len(rt.InstancesOf("alice")) != 0 {
		t.Fatal("alice still has instances")
	}
}

func TestTerminateRemovesFromChains(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", map[string]string{"tag": "A"})
	i2, _ := rt.Instantiate("alice", "pass", map[string]string{"tag": "B"})
	rt.BuildChain("alice", "c", []string{i1.ID, i2.ID}, nil)
	boot(&now)
	if err := rt.Terminate(i1.ID); err != nil {
		t.Fatal(err)
	}
	in := ipPacket(t, "10.0.0.1", "10.0.0.2")
	out, _, err := rt.ExecuteChain("alice/c", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in)+1 || out[len(out)-1] != 'B' {
		t.Fatal("terminated instance still in chain")
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", nil)
	rt.BuildChain("alice", "c", []string{i1.ID}, nil)
	boot(&now)
	for i := 0; i < 10; i++ {
		rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "10.0.0.2"))
	}
	if i1.CPUTime != 10*DefaultPerPacketDelay {
		t.Fatalf("CPU time %v, want %v", i1.CPUTime, 10*DefaultPerPacketDelay)
	}
	if i1.Bytes == 0 {
		t.Fatal("byte counter not updated")
	}
}

func TestRegisterReplaces(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	rt.Register(&Spec{Type: "pass", MemoryBytes: 1, New: func(cfg map[string]string) (Box, error) { return &passBox{}, nil }})
	inst, err := rt.Instantiate("a", "pass", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Spec.MemoryBytes != 1 {
		t.Fatal("re-registration did not replace spec")
	}
	found := false
	for _, typ := range rt.Types() {
		if typ == "pass" {
			found = true
		}
	}
	if !found {
		t.Fatal("Types() missing registered type")
	}
}

func TestChainKeyFormat(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	i1, _ := rt.Instantiate("alice", "pass", nil)
	c, err := rt.BuildChain("alice", "web", []string{i1.ID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "web" || c.Owner != "alice" {
		t.Fatalf("chain %+v", c)
	}
	boot(&now)
	if _, _, err := rt.ExecuteChain("alice/web", ipPacket(t, "1.1.1.1", "2.2.2.2")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(i1.ID, "pass-") {
		t.Fatalf("instance ID %q lacks type prefix", i1.ID)
	}
}

// errBox fails on every packet — the misbehaving user code the sandbox
// must contain.
type errBox struct{}

func (errBox) Name() string { return "err" }
func (errBox) Process(ctx *Context, data []byte) ([]byte, Verdict, error) {
	return nil, VerdictPass, errors.New("boom: user code fault")
}

func TestChainBoxErrorFailsClosed(t *testing.T) {
	now := time.Duration(0)
	rt := testRuntime(&now)
	rt.Register(&Spec{Type: "err", New: func(cfg map[string]string) (Box, error) { return errBox{}, nil }})
	i1, _ := rt.Instantiate("alice", "err", nil)
	i2, _ := rt.Instantiate("alice", "pass", nil)
	rt.BuildChain("alice", "c", []string{i1.ID, i2.ID}, nil)
	boot(&now)
	out, _, err := rt.ExecuteChain("alice/c", ipPacket(t, "10.0.0.1", "10.0.0.2"))
	if err == nil {
		t.Fatal("box error swallowed")
	}
	if out != nil {
		t.Fatal("packet passed a failing chain (must fail closed)")
	}
	if i1.Errors != 1 {
		t.Fatalf("error counter %d", i1.Errors)
	}
	if i2.Packets != 0 {
		t.Fatal("downstream box ran after the fault")
	}
}
