package orchestrator

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pvn/internal/billing"
	"pvn/internal/core"
	"pvn/internal/netsim"
	"pvn/internal/packet"
	"pvn/internal/pvnc"
)

// testModules prices the one module every test chain deploys.
var testModules = map[string]int64{"tcp-proxy": 40}

// newFleet builds n hosts spread round-robin over domains racks.
func newFleet(t *testing.T, clock *netsim.Clock, n, domains int, tmpl *pvnc.TemplateCache) []*Host {
	t.Helper()
	hosts := make([]*Host, n)
	for i := range hosts {
		h, err := NewHost(HostParams{
			Spec: HostSpec{
				Name:          fmt.Sprintf("host%02d", i),
				FailureDomain: fmt.Sprintf("rack%d", i%domains),
				CPUMilli:      4000, MemBytes: 256 << 20,
				DelayUs:         int64(100 * (1 + i%domains)),
				CostPerCPUMilli: int64(1 + i%3), CostPerMemMB: 1,
			},
			Clock:     clock,
			Supported: testModules,
			Templates: tmpl,
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	return hosts
}

// chainDevice builds subscriber i of the shared edge module (constant
// template shape — only owner/device vary).
func chainDevice(t *testing.T, i int) *core.Device {
	t.Helper()
	addr := fmt.Sprintf("10.1.%d.%d", i/200, 1+i%200)
	src := fmt.Sprintf(`pvnc edge-std
owner owner-%03d
device %s
middlebox prox tcp-proxy
chain fast prox
policy 10 match proto=tcp dport=80 via=fast action=forward
policy 0 match any action=forward
`, i, addr)
	cfg, err := pvnc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Device{ID: fmt.Sprintf("dev-%03d", i), Addr: packet.MustParseIPv4(addr),
		Config: cfg, BudgetMicro: 100_000}
}

func chainReq(i int, dev *core.Device) ChainRequest {
	return ChainRequest{
		ID: fmt.Sprintf("chain-%03d", i), Tenant: "t-common",
		CPUMilli: 200, MemBytes: 16 << 20, Priority: 10,
	}
}

// pump pushes one HTTP-ish packet through a session and returns the
// bytes the switch metered (0 when the deployment is gone).
func pump(t *testing.T, dev *core.Device, sess *core.Session) int64 {
	t.Helper()
	ip := &packet.IPv4{Src: dev.Addr, Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	disp, err := sess.Process(data, 0)
	if err != nil || disp.Entry == nil {
		return 0
	}
	return int64(len(data))
}

// trafficMicro extracts an invoice's traffic charge (1 micro/byte
// under the test tariff), excluding flat module lines.
func trafficMicro(inv *billing.Invoice) int64 {
	var total int64
	for _, l := range inv.Lines {
		if strings.HasPrefix(l.Description, "traffic ") {
			total += l.AmountMicro
		}
	}
	return total
}

func requireCleanBook(t *testing.T, c *Cluster) {
	t.Helper()
	if v := c.BookViolations(); len(v) != 0 {
		t.Fatalf("placement book violated: %v", v)
	}
}

func TestSubmitPlacesDeploysAndSpreadsDomains(t *testing.T) {
	clock := &netsim.Clock{}
	c := New(Config{Clock: clock})
	for _, h := range newFleet(t, clock, 4, 2, nil) {
		c.AddHost(h)
	}
	devs := map[string]*core.Device{}
	for i := 0; i < 8; i++ {
		dev := chainDevice(t, i)
		req := chainReq(i, dev)
		if i < 4 {
			req.AntiAffinityKey = "replica-set-a"
		}
		sess, err := c.Submit(req, dev)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if sess.Mode != core.ModeInNetwork {
			t.Fatalf("chain %d not in-network: %s", i, sess.Mode)
		}
		devs[req.ID] = dev
	}
	requireCleanBook(t, c)

	// First two replicas of the anti-affinity group must span both
	// racks; the remaining two necessarily spill (2 domains, 4 members).
	doms := map[string]bool{}
	for i := 0; i < 2; i++ {
		p := c.Placement(fmt.Sprintf("chain-%03d", i))
		doms[c.Host(p.Host).Spec.FailureDomain] = true
	}
	if len(doms) != 2 {
		t.Fatalf("first two replicas share a failure domain: %v", doms)
	}
	if c.Stats().Spills != 2 {
		t.Fatalf("expected 2 anti-affinity spills, got %d", c.Stats().Spills)
	}

	// Traffic flows through every placed session.
	for id, dev := range devs {
		if b := pump(t, dev, c.Placement(id).Sess); b == 0 {
			t.Fatalf("chain %s metered no bytes", id)
		}
	}
}

func TestHeartbeatLadder(t *testing.T) {
	clock := &netsim.Clock{}
	c := New(Config{Clock: clock, HeartbeatEvery: 10 * time.Second})
	hosts := newFleet(t, clock, 2, 2, nil)
	for _, h := range hosts {
		c.AddHost(h)
	}
	c.Start()
	clock.RunFor(30 * time.Second)
	if hosts[0].health != HostAlive {
		t.Fatalf("beating host is %s", hosts[0].health)
	}
	c.KillHost("host00")
	var sawSuspect bool
	for i := 0; i < 10; i++ {
		clock.RunFor(10 * time.Second)
		if hosts[0].health == HostSuspect {
			sawSuspect = true
		}
		if hosts[0].health == HostDead {
			break
		}
	}
	if !sawSuspect || hosts[0].health != HostDead {
		t.Fatalf("ladder never climbed alive→suspect→dead (suspect=%v final=%s)", sawSuspect, hosts[0].health)
	}
	if hosts[1].health != HostAlive {
		t.Fatalf("surviving host is %s", hosts[1].health)
	}
	c.RestoreHost("host00")
	clock.RunFor(20 * time.Second)
	if hosts[0].health != HostAlive {
		t.Fatalf("restored host is %s", hosts[0].health)
	}
	c.Stop()
}

// TestKillHostEvacuation is the robustness core: killing a host must
// evacuate 100% of its chains within the detection deadline via
// make-before-break, with the byte ledger exact (billable == invoiced +
// forfeited + pending) throughout.
func TestKillHostEvacuation(t *testing.T) {
	clock := &netsim.Clock{}
	invoiced := map[string]int64{}
	c := New(Config{Clock: clock, HeartbeatEvery: 5 * time.Second,
		OnInvoice: func(id string, inv *billing.Invoice) { invoiced[id] += trafficMicro(inv) }})
	for _, h := range newFleet(t, clock, 3, 3, nil) {
		c.AddHost(h)
	}
	c.Start()

	billable := map[string]int64{}
	devs := map[string]*core.Device{}
	for i := 0; i < 9; i++ {
		dev := chainDevice(t, i)
		req := chainReq(i, dev)
		if _, err := c.Submit(req, dev); err != nil {
			t.Fatal(err)
		}
		devs[req.ID] = dev
	}
	clock.RunFor(time.Second) // past middlebox boot
	for id, dev := range devs {
		billable[id] += pump(t, dev, c.Placement(id).Sess)
	}

	// Kill whichever host chain-000 landed on — the cost-greedy
	// heuristic concentrates load, so this host holds a real population.
	dead := c.Placement("chain-000").Host
	var onDead []string
	for id, h := range c.Book() {
		if h == dead {
			onDead = append(onDead, id)
		}
	}

	forfeited := map[string]int64{}
	killedAt := clock.Now()
	for _, f := range c.KillHost(dead) {
		for id, d := range devs {
			if d.ID == f.DeviceID {
				forfeited[id] += f.Bytes
			}
		}
	}
	clock.RunUntil(killedAt + c.DeadBy())

	// 100% evacuation: nothing still booked on the dead host, every
	// former resident serving in-network elsewhere.
	for id, h := range c.Book() {
		if h == dead {
			t.Fatalf("chain %s still booked on dead host", id)
		}
	}
	for _, id := range onDead {
		p := c.Placement(id)
		if p.State != StatePlaced || p.Sess == nil || p.Sess.Mode != core.ModeInNetwork {
			t.Fatalf("chain %s not evacuated: state=%s", id, p.State)
		}
	}
	if got := c.Stats().Evacuated; got != len(onDead) {
		t.Fatalf("evacuated %d of %d", got, len(onDead))
	}
	requireCleanBook(t, c)

	// Post-evacuation traffic meters on the new hosts; quiesce and
	// demand exact billing for every chain.
	for id, dev := range devs {
		billable[id] += pump(t, dev, c.Placement(id).Sess)
	}
	c.TeardownAll()
	c.Stop()
	for id := range devs {
		if billable[id] != invoiced[id]+forfeited[id] {
			t.Fatalf("%s billing drift: billable %d != invoiced %d + forfeited %d",
				id, billable[id], invoiced[id], forfeited[id])
		}
	}
}

// TestBrownoutShedsLowestPriorityNeverSecurity: when surviving capacity
// cannot carry the placed load, evacuation sheds lowest-priority
// best-effort chains first and never sheds (or fail-opens) a security
// chain.
func TestBrownoutShedsLowestPriorityNeverSecurity(t *testing.T) {
	clock := &netsim.Clock{}
	c := New(Config{Clock: clock, HeartbeatEvery: 5 * time.Second})
	// Two hosts; each fits 4 chains of 1000 CPU milli. 8 placed chains
	// fill the fleet; losing a host strands 4 with room for 0 — only
	// shedding can rehome the high-priority evacuees.
	for i := 0; i < 2; i++ {
		h, err := NewHost(HostParams{
			Spec: HostSpec{Name: fmt.Sprintf("host%02d", i), FailureDomain: fmt.Sprintf("rack%d", i),
				CPUMilli: 4000, MemBytes: 1 << 30, CostPerCPUMilli: 1},
			Clock: clock, Supported: testModules,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.AddHost(h)
	}
	c.Start()

	// Priorities 1..8; chains 4 and 8 are security (one low, one high).
	for i := 0; i < 8; i++ {
		dev := chainDevice(t, i)
		req := ChainRequest{ID: fmt.Sprintf("chain-%03d", i), Tenant: "t", CPUMilli: 1000,
			MemBytes: 1 << 20, Priority: i + 1, Security: i == 3 || i == 7}
		if _, err := c.Submit(req, dev); err != nil {
			t.Fatal(err)
		}
	}
	requireCleanBook(t, c)

	dead := c.Placement("chain-007").Host // the high-priority security chain's host
	killedAt := clock.Now()
	c.KillHost(dead)
	clock.RunUntil(killedAt + c.DeadBy())
	c.Stop()

	// The high-priority security chain must be serving somewhere.
	p := c.Placement("chain-007")
	if p.State != StatePlaced || p.Sess == nil {
		t.Fatalf("security chain-007 not re-placed: %s", p.State)
	}
	// No security chain was ever shed; a parked one holds no session.
	for i := 0; i < 8; i++ {
		q := c.Placement(fmt.Sprintf("chain-%03d", i))
		if q.Req.Security {
			if q.State == StateShed {
				t.Fatalf("security chain %s was shed to fail-open", q.Req.ID)
			}
			if q.State == StateParked && q.Sess != nil {
				t.Fatalf("parked security chain %s still serving", q.Req.ID)
			}
		}
	}
	// Sheds happened, and every shed chain outranks no placed
	// best-effort chain (lowest priority went first).
	st := c.Stats()
	if st.Shed == 0 {
		t.Fatal("overload produced no brownout sheds")
	}
	minPlaced, maxShed := 1<<30, -1
	for i := 0; i < 8; i++ {
		q := c.Placement(fmt.Sprintf("chain-%03d", i))
		if q.Req.Security {
			continue
		}
		switch q.State {
		case StatePlaced:
			if q.Req.Priority < minPlaced {
				minPlaced = q.Req.Priority
			}
		case StateShed:
			if q.Req.Priority > maxShed {
				maxShed = q.Req.Priority
			}
		}
	}
	if maxShed > minPlaced {
		t.Fatalf("shed a priority-%d chain while priority-%d stayed placed", maxShed, minPlaced)
	}
	requireCleanBook(t, c)
}

func TestAdmissionQuotaRejectsWithoutDegrading(t *testing.T) {
	clock := &netsim.Clock{}
	c := New(Config{Clock: clock, Quotas: map[string]Quota{"capped": {MaxChains: 2}}})
	for _, h := range newFleet(t, clock, 2, 2, nil) {
		c.AddHost(h)
	}
	placed := 0
	for i := 0; i < 5; i++ {
		dev := chainDevice(t, i)
		req := chainReq(i, dev)
		req.Tenant = "capped"
		_, err := c.Submit(req, dev)
		switch {
		case err == nil:
			placed++
		case errors.Is(err, ErrQuotaExceeded):
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if placed != 2 {
		t.Fatalf("quota of 2 admitted %d chains", placed)
	}
	if c.Stats().RejectedQuota != 3 {
		t.Fatalf("expected 3 quota rejections, got %d", c.Stats().RejectedQuota)
	}
	// The placed chains are untouched and consistent.
	requireCleanBook(t, c)
	for i := 0; i < 2; i++ {
		p := c.Placement(fmt.Sprintf("chain-%03d", i))
		if p == nil || p.State != StatePlaced || p.Sess.Mode != core.ModeInNetwork {
			t.Fatalf("admission rejection degraded placed chain %d", i)
		}
	}

	// Capacity exhaustion is also a rejection, never displacement.
	big := ChainRequest{ID: "giant", Tenant: "other", CPUMilli: 1 << 40}
	if _, err := c.Submit(big, nil); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("oversized request: %v", err)
	}
	requireCleanBook(t, c)
}

// TestBookViolationsDetectDivergence: the invariant must catch hosts
// and books disagreeing in either direction.
func TestBookViolationsDetectDivergence(t *testing.T) {
	clock := &netsim.Clock{}
	c := New(Config{Clock: clock})
	hosts := newFleet(t, clock, 2, 2, nil)
	for _, h := range hosts {
		c.AddHost(h)
	}
	dev := chainDevice(t, 0)
	if _, err := c.Submit(chainReq(0, dev), dev); err != nil {
		t.Fatal(err)
	}
	requireCleanBook(t, c)

	// Teardown behind the book's back: placed chain with no deployment.
	host := c.Host(c.Placement("chain-000").Host)
	if _, _, err := host.Net.Server.Teardown(dev.ID); err != nil {
		t.Fatal(err)
	}
	if v := c.BookViolations(); len(v) == 0 {
		t.Fatal("stolen deployment went undetected")
	}

	// Retiring everything restores consistency even though the stolen
	// deployment's teardown errors internally.
	c.TeardownAll()
	requireCleanBook(t, c)

	// Corrupt capacity accounting directly.
	hosts[1].usedCPU += 5
	if v := c.BookViolations(); len(v) == 0 {
		t.Fatal("capacity drift went undetected")
	}
}

func TestRetryParkedAfterRestore(t *testing.T) {
	clock := &netsim.Clock{}
	c := New(Config{Clock: clock, HeartbeatEvery: 5 * time.Second})
	// One big host and one tiny host: when the big one dies, the
	// security chain cannot fit anywhere → parked. Restoring the host
	// and retrying re-places it.
	specs := []HostSpec{
		{Name: "big", FailureDomain: "r0", CPUMilli: 4000, MemBytes: 1 << 30, CostPerCPUMilli: 1},
		{Name: "tiny", FailureDomain: "r1", CPUMilli: 100, MemBytes: 1 << 30, CostPerCPUMilli: 1},
	}
	for _, s := range specs {
		h, err := NewHost(HostParams{Spec: s, Clock: clock, Supported: testModules})
		if err != nil {
			t.Fatal(err)
		}
		c.AddHost(h)
	}
	c.Start()
	dev := chainDevice(t, 0)
	req := ChainRequest{ID: "sec", Tenant: "t", CPUMilli: 1000, MemBytes: 1 << 20, Priority: 5, Security: true}
	if _, err := c.Submit(req, dev); err != nil {
		t.Fatal(err)
	}
	killedAt := clock.Now()
	c.KillHost("big")
	clock.RunUntil(killedAt + c.DeadBy())
	p := c.Placement("sec")
	if p.State != StateParked || p.Sess != nil {
		t.Fatalf("security chain should be parked fail-closed, got %s", p.State)
	}
	if c.Stats().SecurityParked != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
	requireCleanBook(t, c)

	c.RestoreHost("big")
	clock.RunFor(10 * time.Second) // host beats back to alive
	if n := c.RetryParked(); n != 1 {
		t.Fatalf("RetryParked placed %d", n)
	}
	if p.State != StatePlaced || p.Sess == nil || p.Sess.Mode != core.ModeInNetwork {
		t.Fatalf("parked chain not restored: %s", p.State)
	}
	c.Stop()
	requireCleanBook(t, c)
}
