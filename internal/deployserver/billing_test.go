package deployserver

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/openflow"
	"pvn/internal/packet"
)

// subscriberSrc is a one-box PVNC for subscriber i at 10.0.1.i; variant
// changes the policy so a redeploy supersedes rather than re-ACKs.
func subscriberSrc(i, variant int) string {
	return fmt.Sprintf(`pvnc sub%d
owner u%d
device 10.0.1.%d
middlebox pii pii-detect mode=block secrets=hunter2
chain secure pii
policy 100 match proto=tcp dport=80 via=secure action=forward
policy %d match proto=udp dport=53 action=forward
policy 0 match any action=forward
`, i, i, i, 10+variant)
}

// subscriberTraffic bills packets of distinct sizes, both directions,
// to subscriber i in one table.
func subscriberTraffic(tbl *openflow.FlowTable, i, n int) {
	addr := packet.IPv4Address{10, 0, 1, byte(i)}
	far := packet.IPv4Address{93, 184, 216, 34}
	for k := 0; k < n; k++ {
		f := openflow.PacketFields{EthType: packet.EtherTypeIPv4, SrcIP: addr, DstIP: far,
			Proto: packet.IPProtoUDP, SrcPort: 5000, DstPort: []uint16{53, 443, 80}[k%3]}
		if k%2 == 1 {
			f.SrcIP, f.DstIP, f.SrcPort, f.DstPort = f.DstIP, f.SrcIP, f.DstPort, f.SrcPort
		}
		tbl.Lookup(f, 40+k*7+i)
	}
}

// TestUsageAndManifestMatchCookieOracle holds billing and the manifest,
// which read a deployment's own entries, to the by-cookie walks over the
// whole tables they replaced. Across deploy, supersede, a deploy rolled
// back by a failed Instantiate, a lease sweep and teardown, with the
// rules mirrored into a second table and traffic crossing both: Usage,
// Teardown and every swept lease report the StatsByCookie sums over both
// tables, RuleCount is CountByCookie, and both tables return to their
// baseline length.
func TestUsageAndManifestMatchCookieOracle(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	s.LeaseTTL = time.Minute
	tables := s.tables()
	// An operator rule in both tables: the baseline the tenants share.
	for _, tbl := range tables {
		tbl.Install(&openflow.FlowEntry{Priority: 1, Match: openflow.Match{Fields: openflow.FieldEthType, EthType: 0x0806}, Actions: []openflow.Action{openflow.Drop()}}, 0)
	}
	baseline := []int{tables[0].Len(), tables[1].Len()}

	deploy := func(i, variant int) {
		t.Helper()
		req := &discovery.DeployRequest{DeviceID: fmt.Sprintf("dev%d", i), PVNCSource: subscriberSrc(i, variant), Payment: 300}
		if resp := s.HandleDeploy(req); !resp.OK {
			t.Fatalf("deploy %d: %s", i, resp.Reason)
		}
	}
	oracle := func(dev string) (packets, bytes int64) {
		cookie := s.Deployment(dev).Cookie
		for _, tbl := range tables {
			p, b := tbl.StatsByCookie(cookie)
			packets, bytes = packets+p, bytes+b
		}
		return packets, bytes
	}
	traffic := func(round int) {
		for _, dev := range s.DeviceIDs() {
			var i int
			fmt.Sscanf(dev, "dev%d", &i)
			subscriberTraffic(tables[0], i, 3+round)
			subscriberTraffic(tables[1], i, 5+2*round)
		}
	}
	check := func(what string) {
		t.Helper()
		for _, dev := range s.DeviceIDs() {
			wp, wb := oracle(dev)
			p, b, ok := s.Usage(dev)
			if !ok || p != wp || b != wb {
				t.Fatalf("%s: Usage(%s) = %d pkts / %d bytes, the by-cookie sums %d / %d", what, dev, p, b, wp, wb)
			}
			if wp == 0 {
				t.Fatalf("%s: %s carried no traffic; the oracle proves nothing", what, dev)
			}
			m := s.BuildManifest(dev)
			if want := s.Switch.Table.CountByCookie(m.Cookie); m.RuleCount != want || want == 0 {
				t.Fatalf("%s: manifest of %s counts %d rules, CountByCookie %d", what, dev, m.RuleCount, want)
			}
		}
	}
	teardown := func(dev string) {
		t.Helper()
		wp, wb := oracle(dev)
		p, b, err := s.Teardown(dev)
		if err != nil || p != wp || b != wb {
			t.Fatalf("Teardown(%s) = %d pkts / %d bytes (err %v), the by-cookie sums %d / %d", dev, p, b, err, wp, wb)
		}
	}

	for i := 1; i <= 6; i++ {
		deploy(i, 0)
	}
	traffic(0)
	check("after deploy")

	deploy(2, 1) // supersedes dev2's deployment
	deploy(4, 1)
	traffic(1)
	check("after supersede")

	// A deploy whose second instance does not fit rolls back: nothing of
	// it stays in either table, and the residents' billing is untouched.
	lens := []int{tables[0].Len(), tables[1].Len()}
	s.Runtime.MemoryCapBytes = s.Runtime.MemoryUsed() + 6<<20
	twoBoxes := "pvnc two\nowner u9\ndevice 10.0.1.9\nmiddlebox a pii-detect mode=block secrets=x\nmiddlebox b pii-detect mode=block secrets=y\nchain c a b\npolicy 100 match proto=tcp via=c action=forward\npolicy 0 match any action=forward\n"
	if resp := s.HandleDeploy(&discovery.DeployRequest{DeviceID: "dev9", PVNCSource: twoBoxes, Payment: 400}); resp.OK || !strings.HasPrefix(resp.Reason, "instantiate b") {
		t.Fatalf("a deploy past the memory cap: ok=%v reason %q, want a NACK from the second Instantiate", resp.OK, resp.Reason)
	}
	s.Runtime.MemoryCapBytes = 0
	if tables[0].Len() != lens[0] || tables[1].Len() != lens[1] || s.Deployment("dev9") != nil {
		t.Fatalf("rolled-back deploy left rules: %d/%d, was %d/%d", tables[0].Len(), tables[1].Len(), lens[0], lens[1])
	}
	traffic(2)
	check("after rollback")

	teardown("dev1")
	teardown("dev4")
	check("after teardown")

	// Renew all but dev3 and dev5, then let those two lapse.
	now += 40 * time.Second
	for _, dev := range []string{"dev2", "dev6"} {
		s.Renew(dev)
	}
	traffic(3)
	now += 30 * time.Second
	want := map[string][2]int64{}
	for _, dev := range []string{"dev3", "dev5"} {
		p, b := oracle(dev)
		want[dev] = [2]int64{p, b}
	}
	swept := s.SweepExpired()
	if len(swept) != 2 {
		t.Fatalf("swept %d leases, want dev3 and dev5", len(swept))
	}
	for _, sl := range swept {
		if w := want[sl.DeviceID]; sl.Packets != w[0] || sl.Bytes != w[1] {
			t.Fatalf("swept %s billed %d pkts / %d bytes, the by-cookie sums %d / %d", sl.DeviceID, sl.Packets, sl.Bytes, w[0], w[1])
		}
	}
	check("after sweep")

	for _, dev := range s.DeviceIDs() {
		teardown(dev)
	}
	if tables[0].Len() != baseline[0] || tables[1].Len() != baseline[1] {
		t.Fatalf("tables hold %d and %d rules after every teardown, baseline %d and %d", tables[0].Len(), tables[1].Len(), baseline[0], baseline[1])
	}
}

// TestUsageKeepsOperatorDeletedRules pins the one place billing from a
// deployment's own entries differs from the by-cookie walk it replaced:
// traffic a rule carried before an operator deleted it by cookie stays
// billed to its deployment (the walk over what is still installed lost
// it), while the manifest counts only what is still installed.
func TestUsageKeepsOperatorDeletedRules(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	if resp := s.HandleDeploy(&discovery.DeployRequest{DeviceID: "dev1", PVNCSource: subscriberSrc(1, 0), Payment: 300}); !resp.OK {
		t.Fatal(resp.Reason)
	}
	cookie := s.Deployment("dev1").Cookie
	subscriberTraffic(s.Switch.Table, 1, 6)
	subscriberTraffic(s.ExtraRules, 1, 4)
	wantP, wantB := int64(0), int64(0)
	for _, tbl := range s.tables() {
		p, b := tbl.StatsByCookie(cookie)
		wantP, wantB = wantP+p, wantB+b
	}
	rules := s.BuildManifest("dev1").RuleCount

	if n := s.Switch.Table.RemoveByCookie(cookie); n != rules {
		t.Fatalf("operator delete removed %d rules, the manifest counted %d", n, rules)
	}
	if p, b := s.Switch.Table.StatsByCookie(cookie); p != 0 || b != 0 {
		t.Fatalf("the by-cookie walk still sees %d pkts / %d bytes after the delete", p, b)
	}
	if p, b, _ := s.Usage("dev1"); p != wantP || b != wantB {
		t.Fatalf("Usage after the operator delete: %d pkts / %d bytes, want what the rules carried, %d / %d", p, b, wantP, wantB)
	}
	if m := s.BuildManifest("dev1"); m.RuleCount != 0 {
		t.Fatalf("manifest counts %d rules after the operator deleted them all", m.RuleCount)
	}
	if p, b, err := s.Teardown("dev1"); err != nil || p != wantP || b != wantB {
		t.Fatalf("Teardown: %d pkts / %d bytes (err %v), want %d / %d", p, b, err, wantP, wantB)
	}
	if s.Switch.Table.Len() != 0 || s.ExtraRules.Len() != 0 {
		t.Fatalf("rules left: %d and %d", s.Switch.Table.Len(), s.ExtraRules.Len())
	}
}

// TestCrashForfeitsBookedUsage: Crash reports, for every booked
// deployment and in device-ID order, exactly the usage Usage reported
// just before it, then leaves no deployment, rule, meter, chain or
// instance behind.
func TestCrashForfeitsBookedUsage(t *testing.T) {
	now := time.Duration(0)
	s := testServer(t, &now)
	s.ExtraRules = openflow.NewFlowTable()
	for _, i := range []int{3, 1, 12, 2} {
		req := &discovery.DeployRequest{DeviceID: fmt.Sprintf("dev%d", i), PVNCSource: subscriberSrc(i, 0), Payment: 300}
		if resp := s.HandleDeploy(req); !resp.OK {
			t.Fatalf("deploy %d: %s", i, resp.Reason)
		}
		subscriberTraffic(s.Switch.Table, i, 2+i)
		subscriberTraffic(s.ExtraRules, i, i)
	}
	var want []Forfeit
	for _, dev := range []string{"dev1", "dev12", "dev2", "dev3"} {
		p, b, ok := s.Usage(dev)
		if !ok || p == 0 {
			t.Fatalf("%s: usage %d pkts (booked %t); the traffic missed it", dev, p, ok)
		}
		want = append(want, Forfeit{DeviceID: dev, Cookie: s.Deployment(dev).Cookie, Packets: p, Bytes: b})
	}
	insts := len(s.Runtime.InstanceIDs())

	got, rules, _, _, instances := s.Crash()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Crash forfeits\n%v\nwant the Usage rows in device-ID order\n%v", got, want)
	}
	if rules == 0 || instances != insts {
		t.Fatalf("Crash reclaimed %d rules and %d of %d instances", rules, instances, insts)
	}
	if len(s.DeviceIDs()) != 0 || s.Switch.Table.Len() != 0 || s.ExtraRules.Len() != 0 ||
		len(s.Runtime.ChainKeys()) != 0 || len(s.Runtime.InstanceIDs()) != 0 {
		t.Fatalf("state left after Crash: %d deployments, %d+%d rules, %d chains, %d instances",
			len(s.DeviceIDs()), s.Switch.Table.Len(), s.ExtraRules.Len(), len(s.Runtime.ChainKeys()), len(s.Runtime.InstanceIDs()))
	}
}
