package experiments

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// cell parses a table cell as float, stripping units/percent signs.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.Fields(s)[0], "%")
	if i := strings.IndexByte(s, '/'); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestResultString(t *testing.T) {
	r := &Result{ID: "EX", Title: "t", Claim: "c", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Findingf("found %d", 3)
	s := r.String()
	for _, want := range []string{"EX", "claim: c", "a", "bb", "found 3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output %q missing %q", s, want)
		}
	}
}

func TestE1ShapesHold(t *testing.T) {
	p := DefaultE1
	p.Instances = 16
	p.PacketsPerChain = 50
	res := E1(p)
	if len(res.Rows) < 2+p.MaxChainLength {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Instantiation ~30ms.
	if got := cell(t, res.Rows[0][2]); got < 25 || got > 35 {
		t.Fatalf("instantiation mean %v ms, want ~30", got)
	}
	// Memory ~6MB.
	if got := cell(t, res.Rows[1][2]); got < 5 || got > 7 {
		t.Fatalf("memory %v MB, want ~6", got)
	}
	// Chain length 1 delay ~45us and linear growth.
	d1 := cell(t, res.Rows[2][2])
	d8 := cell(t, res.Rows[2+p.MaxChainLength-1][2])
	if d1 < 40 || d1 > 50 {
		t.Fatalf("chain-1 delay %v us, want ~45", d1)
	}
	ratio := d8 / d1
	if ratio < 7 || ratio > 9 {
		t.Fatalf("chain-8/chain-1 delay ratio %v, want ~8 (linear)", ratio)
	}
}

func TestE2TunnelingShape(t *testing.T) {
	p := DefaultE2
	p.Requests = 20
	p.InterdomainRTTs = []time.Duration{20 * time.Millisecond, 100 * time.Millisecond}
	res := E2(p)
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		direct := cell(t, row[1])
		inNet := cell(t, row[2])
		cloud := cell(t, row[3])
		home := cell(t, row[4])
		// In-network is within a few ms of direct.
		if inNet-direct > 5 {
			t.Fatalf("in-network overhead %v ms over direct", inNet-direct)
		}
		// Tunnels are strictly worse, home worst.
		if cloud <= inNet || home <= cloud {
			t.Fatalf("ordering violated: direct=%v innet=%v cloud=%v home=%v", direct, inNet, cloud, home)
		}
	}
	// Overhead grows with interdomain RTT.
	if cell(t, res.Rows[1][3]) <= cell(t, res.Rows[0][3]) {
		t.Fatal("cloud tunnel cost did not grow with interdomain RTT")
	}
}

func TestE3SplitTCPShape(t *testing.T) {
	p := DefaultE3
	p.Trials = 8
	res := E3(p)
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Poor cellular: split must win.
	poorSpeedup := cell(t, res.Rows[3][3])
	if poorSpeedup <= 1.0 {
		t.Fatalf("split speedup on poor cellular %v, want > 1", poorSpeedup)
	}
	// Overloaded proxy on good wifi: split must lose.
	overloaded := cell(t, res.Rows[4][3])
	if overloaded >= 1.0 {
		t.Fatalf("overloaded proxy speedup %v, want < 1", overloaded)
	}

	abl := E3Ablation(p)
	first := cell(t, abl.Rows[0][3])
	last := cell(t, abl.Rows[len(abl.Rows)-1][3])
	if last <= first {
		t.Fatalf("speedup did not grow with loss: %v -> %v", first, last)
	}
}

func TestE4VideoShape(t *testing.T) {
	res := E4(DefaultE4)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	full := cell(t, res.Rows[0][1])
	shaped := cell(t, res.Rows[1][1])
	pvn := cell(t, res.Rows[2][1])
	if full != 3 {
		t.Fatalf("unshaped rung %v, want 3 (1080p)", full)
	}
	if shaped > 1 {
		t.Fatalf("carrier-shaped rung %v, want <=1 (sub-HD)", shaped)
	}
	if !(pvn > shaped && pvn < full) {
		t.Fatalf("PVN rung %v not between shaped %v and full %v", pvn, shaped, full)
	}
	// Carrier zero-rates everything, PVN zero-rates only shaped flows.
	if cell(t, res.Rows[1][3]) != 0 {
		t.Fatal("carrier regime billed quota")
	}
	if cell(t, res.Rows[2][3]) == 0 {
		t.Fatal("PVN HD sessions consumed no quota")
	}
}

func TestE5TLSShape(t *testing.T) {
	p := DefaultE5
	p.ConnectionsPerClass = 20
	res := E5(p)
	if len(res.Rows) != 6 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Valid row: 0% blocked.
	if got := cell(t, res.Rows[0][3]); got != 0 {
		t.Fatalf("valid chains blocked %v%%", got)
	}
	// All bad classes 100% blocked.
	for _, row := range res.Rows[1:] {
		if got := cell(t, row[3]); got != 100 {
			t.Fatalf("%s blocked %v%%, want 100", row[0], got)
		}
	}
}

func TestE6DNSShape(t *testing.T) {
	p := DefaultE6
	p.Lookups = 80
	res := E6(p)
	// Signed row: zero forged served under PVN.
	if got := cell(t, res.Rows[0][2]); got != 0 {
		t.Fatalf("signed zone served %v forged answers under PVN", got)
	}
	// quorum=1 with a malicious open resolver can still be fooled more
	// often than quorum=3.
	var q1Served, q3Served float64 = -1, -1
	for _, row := range res.Rows {
		if strings.Contains(row[0], "quorum=1") {
			q1Served = cell(t, row[2])
		}
		if strings.Contains(row[0], "quorum=3") {
			q3Served = cell(t, row[2])
		}
	}
	if q1Served < 0 || q3Served < 0 {
		t.Fatal("quorum rows missing")
	}
	if q3Served > q1Served {
		t.Fatalf("larger quorum served more forged answers (%v vs %v)", q3Served, q1Served)
	}
	// Without the PVN every forged answer is served.
	if got := cell(t, res.Rows[0][1]); got == 0 {
		t.Fatal("baseline served nothing — forge rate broken")
	}
}

func TestE7PIIShape(t *testing.T) {
	p := DefaultE7
	p.Requests = 150
	res := E7(p)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// All three placements catch the same plaintext leaks.
	caught := cell(t, res.Rows[0][1])
	if caught == 0 {
		t.Fatal("nothing caught")
	}
	for _, row := range res.Rows[1:] {
		if cell(t, row[1]) != caught {
			t.Fatalf("placements disagree: %v vs %v", cell(t, row[1]), caught)
		}
	}
	// Coverage below 100% (TLS-encrypted leaks missed).
	if got := cell(t, res.Rows[0][4]); got >= 100 {
		t.Fatalf("coverage %v%%, expected <100 due to encrypted leaks", got)
	}
}

func TestE8AuditShape(t *testing.T) {
	p := DefaultE8
	p.Trials = 12
	res := E8(p)
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Honest provider: zero violations, reputation 1.
	if got := cell(t, res.Rows[0][2]); got != 0 {
		t.Fatalf("honest provider flagged %v times", got)
	}
	if got := cell(t, res.Rows[0][5]); got != 1 {
		t.Fatalf("honest reputation %v", got)
	}
	// Every cheater detected in (almost) every audit.
	for _, row := range res.Rows[1:] {
		if got := cell(t, row[3]); got < 90 {
			t.Fatalf("%s recall %v%%, want >=90", row[0], got)
		}
	}
}

func TestE9DiscoveryShape(t *testing.T) {
	p := DefaultE9
	p.Devices = 10
	res := E9(p)
	if len(res.Rows) != 9 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	find := func(label string) []string {
		for _, row := range res.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return nil
	}
	// Full provider deploys everyone regardless of strategy.
	if got := cell(t, find("full x strict")[1]); got != float64(p.Devices) {
		t.Fatalf("full/strict deployed %v", got)
	}
	// Partial provider: strict deploys nothing, reduce deploys all with
	// fewer modules.
	if got := cell(t, find("partial x strict")[1]); got != 0 {
		t.Fatalf("partial/strict deployed %v", got)
	}
	reduceRow := find("partial x reduce")
	if got := cell(t, reduceRow[1]); got != float64(p.Devices) {
		t.Fatalf("partial/reduce deployed %v", got)
	}
	if got := cell(t, reduceRow[3]); got >= 3 {
		t.Fatalf("partial/reduce kept %v modules, want <3", got)
	}
	// PVN-free provider deploys nothing anywhere.
	if got := cell(t, find("none x reduce")[1]); got != 0 {
		t.Fatalf("none/reduce deployed %v", got)
	}
}

func TestE10RedirectShape(t *testing.T) {
	res := E10(DefaultE10)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	bare := cell(t, res.Rows[0][1])
	full := cell(t, res.Rows[1][1])
	selective := cell(t, res.Rows[2][1])
	if !(bare < selective && selective < full) {
		t.Fatalf("latency ordering wrong: bare=%v selective=%v full=%v", bare, selective, full)
	}
	// Selective protects 100% of sensitive flows.
	if !strings.HasPrefix(res.Rows[2][4], "100") {
		t.Fatalf("selective protection %q", res.Rows[2][4])
	}
	// No-protection protects nothing.
	if !strings.HasPrefix(res.Rows[0][4], "0") {
		t.Fatalf("bare protection %q", res.Rows[0][4])
	}
}

// TestE13LifecycleShape checks the lossy-lifecycle acceptance criteria:
// at 30% injected loss every device still reaches connectivity (PVN or
// tunnel) inside the deadline, retries are actually exercised, and the
// crash scenario reclaims orphaned state and re-deploys lapsed devices.
func TestE13LifecycleShape(t *testing.T) {
	p := DefaultE13
	p.Devices = 12
	res := E13(p)
	if len(res.Rows) != len(p.LossRates)+1 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	find := func(label string) []string {
		for _, row := range res.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return nil
	}
	// Lossless: everyone deploys first try.
	clean := find("loss 0%")
	if cell(t, clean[1]) != float64(p.Devices) || cell(t, clean[6]) != 0 {
		t.Fatalf("lossless row %v", clean)
	}
	// 30% loss: every device lands on PVN or tunnel within the deadline
	// (time-to-connectivity bounded), with retries observed.
	lossy := find("loss 30%")
	deployed, tunneled := cell(t, lossy[1]), cell(t, lossy[2])
	if deployed+tunneled != float64(p.Devices) {
		t.Fatalf("30%% loss: %v deployed + %v tunneled != %d devices", deployed, tunneled, p.Devices)
	}
	if maxTTC := cell(t, lossy[4]); maxTTC > float64((p.Deadline+time.Second)/time.Millisecond) {
		t.Fatalf("30%% loss: p95 ttc %v ms exceeds deadline", maxTTC)
	}
	if got := cell(t, lossy[6]); got < 3 {
		t.Fatalf("30%% loss: max retries %v, want >= 3 (retry machinery unexercised)", got)
	}
	// 50% loss still strands nobody.
	worst := find("loss 50%")
	if cell(t, worst[1])+cell(t, worst[2]) != float64(p.Devices) {
		t.Fatalf("50%% loss stranded devices: %v", worst)
	}
	// Crash scenario: deployments were lost, reclaimed, and re-deployed.
	var crashFinding string
	for _, f := range res.Findings {
		if strings.Contains(f, "crash at") {
			crashFinding = f
		}
	}
	if crashFinding == "" || strings.Contains(crashFinding, "0 live deployments lost") ||
		strings.Contains(crashFinding, "0 orphaned instances") {
		t.Fatalf("crash scenario did not exercise recovery: %q", crashFinding)
	}
}

// TestE14SupervisionShape checks the supervised-execution acceptance
// criteria: fail-open keeps >= 90% of packets flowing through the fault
// storm while fail-closed drops them, restart restores scanning after
// the storm, every fail-open bypass of the security box is a ledger
// violation, and the whole thing is deterministic.
func TestE14SupervisionShape(t *testing.T) {
	p := DefaultE14
	res := E14(p)
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d, want 4 scenarios", len(res.Rows))
	}
	find := func(label string) []string {
		for _, row := range res.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return nil
	}
	phase := fmt.Sprintf("%d/%d", p.PacketsPerPhase, p.PacketsPerPhase)
	none := fmt.Sprintf("0/%d", p.PacketsPerPhase)

	// Fail-open: 100% delivered (>= the 90% criterion) in both phases,
	// and every one of the 2*P packets that crossed the broken scanner
	// is a violation.
	open := find("fail-open, no restart")
	if open[1] != phase || open[2] != phase {
		t.Fatalf("fail-open delivery %v/%v, want %v both phases", open[1], open[2], phase)
	}
	if open[8] != fmt.Sprint(2*p.PacketsPerPhase) {
		t.Fatalf("fail-open violations %v, want %d (one per bypassed packet)", open[8], 2*p.PacketsPerPhase)
	}
	// Fail-closed: nothing delivered, nothing bypassed, no violations.
	closed := find("fail-closed, no restart")
	if closed[1] != none || closed[2] != none {
		t.Fatalf("fail-closed delivery %v/%v, want %v both phases", closed[1], closed[2], none)
	}
	if closed[7] != "0" || closed[8] != "0" {
		t.Fatalf("fail-closed bypasses/violations %v/%v, want 0/0", closed[7], closed[8])
	}
	// Restart: phase-B traffic is delivered AND scanned (one PII alert
	// per packet), for both policies.
	for _, label := range []string{"fail-closed + restart", "fail-open + restart"} {
		row := find(label)
		if row[2] != phase {
			t.Fatalf("%s post-restart delivery %v, want %v", label, row[2], phase)
		}
		if row[3] != fmt.Sprint(p.PacketsPerPhase) {
			t.Fatalf("%s post-restart scanned %v, want %d (full coverage restored)", label, row[3], p.PacketsPerPhase)
		}
		if row[6] != "1" {
			t.Fatalf("%s restarts %v, want 1", label, row[6])
		}
	}
	// Breaker and panic containment: the storm panics exactly
	// BreakerThreshold times before the breaker opens, in every scenario.
	for _, row := range res.Rows {
		if row[4] != fmt.Sprint(p.BreakerThreshold) {
			t.Fatalf("%s panics %v, want exactly %d (threshold)", row[0], row[4], p.BreakerThreshold)
		}
		if row[5] != "1" {
			t.Fatalf("%s breaker opens %v, want 1", row[0], row[5])
		}
	}
}

// TestE15RoamingShape checks the resilient-redirection acceptance
// criteria with exact counts: probed failover re-pins every flow off the
// dead endpoint with loss bounded by detection latency, make-before-break
// loses zero packets where teardown-rebuild measurably drops, and the
// split-TCP proxy's flow state survives the handover.
func TestE15RoamingShape(t *testing.T) {
	p := DefaultE15
	res := E15(p)
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d, want 4 scenarios", len(res.Rows))
	}
	find := func(label string) []string {
		for _, row := range res.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return nil
	}

	// Static pin: 4 flows x 2ms ticks lose the entire 200ms outage.
	static := find("static pin, endpoint outage")
	if static[1] != "800" || static[3] != "400" || static[4] != "0" {
		t.Fatalf("static row %v, want 800 sent / 400 lost / 0 failovers", static)
	}
	// Probed: two 10ms-spaced probes time out at 20ms each -> down at
	// 130ms; loss is the 16 ticks of detection latency x 4 flows, then
	// every flow fails over exactly once.
	probed := find("probed failover, endpoint outage")
	if probed[3] != "64" {
		t.Fatalf("probed loss %v, want 64 (detection latency only)", probed[3])
	}
	if probed[4] != fmt.Sprint(p.Flows) {
		t.Fatalf("failovers %v, want %d (one per flow)", probed[4], p.Flows)
	}
	if cell(t, probed[3]) >= cell(t, static[3]) {
		t.Fatal("probes did not reduce outage loss")
	}

	// Teardown-rebuild blackholes the new deployment's 30ms boot window:
	// 14 new-flow ticks + 4 drain ticks = 18 dropped of 39 sent.
	tdr := find("roam: teardown-rebuild")
	if tdr[1] != "39" || tdr[2] != "21" || tdr[3] != "18" {
		t.Fatalf("teardown row %v, want 39/21/18", tdr)
	}
	// Make-before-break: identical timeline, zero loss.
	mbb := find("roam: make-before-break")
	if mbb[1] != "39" || mbb[2] != "39" || mbb[3] != "0" {
		t.Fatalf("make-before-break row %v, want 39/39/0", mbb)
	}
	// Split-TCP proxy state: 4 migrated flows + 4 new ones survive the
	// handover; a cold rebuild starts over with only the new 4.
	if mbb[5] != "8" || tdr[5] != "4" {
		t.Fatalf("proxy flows mbb=%v tdr=%v, want 8 vs 4", mbb[5], tdr[5])
	}
	// Old-network invoices are exact: the make-before-break bill includes
	// the traffic drained through the old chains while the new deployment
	// booted, so it is strictly larger.
	if tdr[6] != "900" || mbb[6] != "2466" {
		t.Fatalf("invoices tdr=%v mbb=%v, want 900 and 2466", tdr[6], mbb[6])
	}
	// Every failover left ledger evidence.
	var evid string
	for _, f := range res.Findings {
		if strings.Contains(f, "redirection records") {
			evid = f
		}
	}
	if !strings.Contains(evid, fmt.Sprintf("%d redirection records", p.Flows)) {
		t.Fatalf("redirection evidence finding %q, want %d records", evid, p.Flows)
	}
}

// TestE16OverlayShape checks the decentralized-discovery acceptance
// criteria at the full 256-node scale: every node joins, iterative
// lookups land on the exact target within the O(log n) round bound,
// broadcast attaches to the cheap liar while the overlay's gossiped
// reputation filters it, tampered store replicas are rejected at
// fetch, and churn/partition recovery hold.
func TestE16OverlayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node overlay run; skipped in -short")
	}
	p := DefaultE16
	res := E16(p)
	find := func(label string) []string {
		for _, row := range res.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return nil
	}

	// Join: all nodes bootstrapped through one contact.
	if got := find("join")[2]; got != fmt.Sprintf("%d/%d", p.Nodes, p.Nodes) {
		t.Fatalf("join %s, want %d/%d", got, p.Nodes, p.Nodes)
	}
	// Lookup: every sample finds the exact target, within the log bound.
	if got := find("lookup")[2]; got != fmt.Sprintf("%d/%d", p.Lookups, p.Lookups) {
		t.Fatalf("lookup exactness %s, want %d/%d", got, p.Lookups, p.Lookups)
	}
	hopBound := float64(bits.Len(uint(p.Nodes)))
	if p99 := res.Metrics["lookup_hops_p99"]; p99 > hopBound {
		t.Fatalf("lookup p99 %.1f rounds exceeds O(log n) bound %.0f", p99, hopBound)
	}

	// Discovery: broadcast takes the cheapest (lying) provider; the
	// overlay path filters it on gossiped reputation and attaches to an
	// honest one.
	if got := find("discover/broadcast")[1]; !strings.Contains(got, "isp-liar") {
		t.Fatalf("broadcast row %q, want attach to isp-liar", got)
	}
	if got := find("discover/overlay")[1]; !strings.Contains(got, "isp-honest") {
		t.Fatalf("overlay row %q, want attach to isp-honest", got)
	}
	if s := res.Metrics["gossip_liar_score"]; s >= 0.5 {
		t.Fatalf("liar gossip score %.2f, want < 0.5 (filtered)", s)
	}
	// Ranking puts the liar last despite being cheapest.
	if got := find("rank")[1]; !strings.HasSuffix(got, "isp-liar") {
		t.Fatalf("rank %q, want isp-liar last", got)
	}

	// Store: the honest fetch installs; with every replica tampering,
	// all fetched records are rejected and none install.
	if got := find("store/fetch")[2]; !strings.HasPrefix(got, "1 installed, 0 rejected") {
		t.Fatalf("store fetch %q, want 1 installed, 0 rejected", got)
	}
	tampered := find("store/tampered")[2]
	if !strings.HasPrefix(tampered, "0 installed") || strings.Contains(tampered, "0 rejected") {
		t.Fatalf("tampered fetch %q, want 0 installed and all rejected", tampered)
	}

	// Churn: every post-churn service lookup still returns offers.
	if got := find("churn")[2]; got != fmt.Sprintf("%d/%d", p.Lookups/2, p.Lookups/2) {
		t.Fatalf("churn lookups %s, want %d/%d", got, p.Lookups/2, p.Lookups/2)
	}
	// Partition: heal restores fetches on both sides.
	if got := find("partition")[1]; !strings.Contains(got, "healed a:true b:true") {
		t.Fatalf("partition row %q, want both sides healed", got)
	}
}

// TestE13NoGoroutineLeak: the whole lifecycle runs on the simulated
// clock; an experiment run must not leave goroutines behind.
func TestE13NoGoroutineLeak(t *testing.T) {
	p := DefaultE13
	p.Devices = 6
	before := runtime.NumGoroutine()
	E13(p)
	runtime.GC()
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("goroutines grew %d -> %d", before, after)
	}
}

// TestE19StormsShape runs the composed-storm experiment at full scale
// and checks its claims: every scenario row ends with zero invariant
// violations, the storm fully evacuates the dying network, the flap
// drives real tunnel failovers, the campaign's tampered records are all
// rejected, and the soak actually covers its horizon.
func TestE19StormsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-sim-second soak row; skipped in -short")
	}
	p := DefaultE19
	res := E19(p)
	find := func(label string) []string {
		for _, row := range res.Rows {
			if row[0] == label {
				return row
			}
		}
		t.Fatalf("row %q missing", label)
		return nil
	}

	for _, label := range []string{"roam-storm", "flap", "campaign", "soak"} {
		if got := find(label)[4]; got != "0" {
			t.Fatalf("%s row reports %s invariant violations", label, got)
		}
	}
	// Storm: nobody stranded on the dying network.
	if res.Metrics["storm_stranded"] != 0 {
		t.Fatalf("storm stranded %.0f devices", res.Metrics["storm_stranded"])
	}
	if res.Metrics["storm_roams"] < float64(p.StormDevices) {
		t.Fatalf("storm roams %.0f < %d devices", res.Metrics["storm_roams"], p.StormDevices)
	}
	// Flap: the path crash forced at least one prober-driven failover.
	if res.Metrics["flap_failovers"] == 0 {
		t.Fatal("flap episode produced no tunnel failovers")
	}
	// Campaign: corruption detected, every tampered record rejected.
	if res.Metrics["campaign_corrupts"] == 0 {
		t.Fatal("campaign produced no detected corruptions")
	}
	if res.Metrics["campaign_rejects"] == 0 || res.Metrics["campaign_evil_installs"] != 0 {
		t.Fatalf("campaign rejects %.0f, evil installs %.0f (want >0 and 0)",
			res.Metrics["campaign_rejects"], res.Metrics["campaign_evil_installs"])
	}
	// Soak: the horizon was actually simulated.
	if got := res.Metrics["soak_sim_seconds"]; got < p.SoakSimTime.Seconds() {
		t.Fatalf("soak simulated %.0fs < %.0fs horizon", got, p.SoakSimTime.Seconds())
	}
}

// TestE17OrchestrationShape checks the orchestration acceptance
// criteria: the Bari heuristic beats both baselines on cost per chain
// under identical budgets, killing a host evacuates 100% of its chains
// within the detection bound with zero billing drift, template sharing
// cuts per-subscriber table bytes below the naive compile, and
// admission/brownout reject over-quota tenants and never shed a
// security chain.
func TestE17OrchestrationShape(t *testing.T) {
	p := DefaultE17
	p.PlacementRequests = 5000
	p.ShareSizes = []int{50, 500}
	res := E17(p)

	for _, f := range res.Findings {
		if strings.Contains(f, "VIOLATED") {
			t.Fatalf("finding violated: %s", f)
		}
	}
	m := res.Metrics
	if m["placement_cost_heuristic"] >= m["placement_cost_random"] ||
		m["placement_cost_heuristic"] >= m["placement_cost_first-fit"] {
		t.Fatalf("heuristic not cheapest: heur=%.1f rand=%.1f ff=%.1f",
			m["placement_cost_heuristic"], m["placement_cost_random"], m["placement_cost_first-fit"])
	}
	if m["evac_chains"] == 0 || m["evac_evacuated"] != m["evac_chains"] {
		t.Fatalf("evacuation incomplete: %.0f/%.0f", m["evac_evacuated"], m["evac_chains"])
	}
	if m["evac_blackout_s"] <= 0 || m["evac_blackout_s"] > m["evac_bound_s"] {
		t.Fatalf("blackout %.1fs outside (0, %.1fs]", m["evac_blackout_s"], m["evac_bound_s"])
	}
	if m["evac_drift_micro"] != 0 {
		t.Fatalf("billing drifted %.0f micro across the crash", m["evac_drift_micro"])
	}
	for _, n := range p.ShareSizes {
		shared := m[fmt.Sprintf("share_bytes_per_sub_%d", n)]
		naive := m[fmt.Sprintf("naive_bytes_per_sub_%d", n)]
		if shared >= naive {
			t.Fatalf("sharing saved nothing at n=%d: %.0f vs naive %.0f", n, shared, naive)
		}
	}
	if m["quota_rejects"] != 3 {
		t.Fatalf("quota rejected %.0f chains, want 3", m["quota_rejects"])
	}
	if m["brownout_sheds"] == 0 || m["security_sheds"] != 0 {
		t.Fatalf("brownout sheds %.0f, security sheds %.0f (want >0 and 0)",
			m["brownout_sheds"], m["security_sheds"])
	}
}

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from this run")

// TestExperimentsDeterministic: EXPERIMENTS.md promises bit-identical
// tables on every run; verify for a representative subset, and hold each
// table to its committed golden file so a refactor that changes a table
// shows up as a golden diff (go test -run TestExperimentsDeterministic
// -update rewrites them).
func TestExperimentsDeterministic(t *testing.T) {
	pairs := []struct {
		name string
		run  func() string
	}{
		{"E1", func() string { p := DefaultE1; p.Instances, p.PacketsPerChain = 16, 50; return E1(p).String() }},
		{"E3", func() string { p := DefaultE3; p.Trials = 5; return E3(p).String() }},
		{"E4", func() string { return E4(DefaultE4).String() }},
		{"E6", func() string { p := DefaultE6; p.Lookups = 40; return E6(p).String() }},
		{"E8", func() string { p := DefaultE8; p.Trials = 6; return E8(p).String() }},
		{"E10", func() string { return E10(DefaultE10).String() }},
		{"E11", func() string {
			p := DefaultE11
			p.UserCounts = []int{1, 20}
			p.PacketsPerProbe = 200
			return E11(p).String()
		}},
		{"E13", func() string { p := DefaultE13; p.Devices = 8; return E13(p).String() }},
		{"E14", func() string { p := DefaultE14; p.PacketsPerPhase = 200; return E14(p).String() }},
		{"E15", func() string { return E15(DefaultE15).String() }},
		{"E16", func() string { p := DefaultE16; p.Nodes, p.Lookups = 48, 16; return E16(p).String() }},
		{"E17", func() string {
			p := DefaultE17
			p.PlacementRequests = 5000
			p.ShareSizes = []int{50, 500}
			return E17(p).String()
		}},
		{"E19", func() string {
			p := DefaultE19
			p.StormDevices = 10
			p.SoakSimTime = 20_000 * time.Second
			return E19(p).String()
		}},
	}
	for _, c := range pairs {
		a, b := c.run(), c.run()
		if a != b {
			t.Errorf("%s not deterministic:\n%s\nvs\n%s", c.name, a, b)
		}
		golden := filepath.Join("testdata", c.name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(a), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if a != string(want) {
			t.Errorf("%s differs from %s:\n%s\nwant:\n%s", c.name, golden, a, want)
		}
	}
}
