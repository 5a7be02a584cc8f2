package tunnel

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"pvn/internal/health"
	"pvn/internal/netsim"
	"pvn/internal/packet"
)

func testFlow(port uint16) packet.Flow {
	return packet.Flow{
		Proto: packet.IPProtoTCP,
		Src:   packet.Endpoint{Addr: devAddr, Port: port},
		Dst:   packet.Endpoint{Addr: packet.MustParseIPv4("93.184.216.34"), Port: 443},
	}.Canonical()
}

// TestHealthLadder walks one endpoint healthy → degraded → down →
// probation → healthy via RecordProbe, checking transition events and
// backoff widening along the way.
func TestHealthLadder(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Health = HealthConfig{
		Window: 8, DownThreshold: 4,
		RetryBackoff: 100 * time.Millisecond, RetryBackoffMax: 400 * time.Millisecond,
		ProbationProbes: 2,
	}
	var events []Event
	tbl.OnEvent = func(ev Event) { events = append(events, ev) }
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, Trusted: true})

	// Two losses: degraded.
	tbl.RecordProbe("cloud", false, 0, 1)
	if h := tbl.RecordProbe("cloud", false, 0, 2); h != health.Degraded {
		t.Fatalf("after 2 losses: %v", h)
	}
	// Two more: down, backoff at the initial retry interval.
	tbl.RecordProbe("cloud", false, 0, 3)
	if h := tbl.RecordProbe("cloud", false, 0, 4); h != health.Down {
		t.Fatalf("after 4 losses: %v", h)
	}
	if d := tbl.probeDelay("cloud"); d != 100*time.Millisecond {
		t.Fatalf("down backoff %v", d)
	}
	// Losses while down widen the backoff, capped.
	tbl.RecordProbe("cloud", false, 0, 5)
	tbl.RecordProbe("cloud", false, 0, 6)
	tbl.RecordProbe("cloud", false, 0, 7)
	if d := tbl.probeDelay("cloud"); d != 400*time.Millisecond {
		t.Fatalf("capped backoff %v, want 400ms", d)
	}
	// A success opens probation; a loss there goes straight back down.
	if h := tbl.RecordProbe("cloud", true, 10*time.Millisecond, 8); h != health.Probation {
		t.Fatalf("first success: %v", h)
	}
	if h := tbl.RecordProbe("cloud", false, 0, 9); h != health.Down {
		t.Fatalf("loss in probation: %v", h)
	}
	// Recovery: success, then the remaining probation probe.
	tbl.RecordProbe("cloud", true, 10*time.Millisecond, 10)
	if h := tbl.RecordProbe("cloud", true, 10*time.Millisecond, 11); h != health.Healthy {
		t.Fatalf("after probation: %v", h)
	}
	if d := tbl.probeDelay("cloud"); d != tbl.Health.probeInterval() {
		t.Fatalf("recovered cadence %v", d)
	}

	wantPath := []struct{ from, to health.State }{
		{health.Healthy, health.Degraded}, {health.Degraded, health.Down}, {health.Down, health.Probation},
		{health.Probation, health.Down}, {health.Down, health.Probation}, {health.Probation, health.Healthy},
	}
	if len(events) != len(wantPath) {
		t.Fatalf("events %+v", events)
	}
	for i, w := range wantPath {
		if events[i].From != w.from || events[i].To != w.to {
			t.Fatalf("event %d = %v→%v, want %v→%v", i, events[i].From, events[i].To, w.from, w.to)
		}
	}
}

// TestHealthAwareBestTrusted: selection prefers healthy endpoints over
// degraded ones regardless of static RTT, and only returns a down
// endpoint when every trusted endpoint is dark.
func TestHealthAwareBestTrusted(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Health = HealthConfig{Window: 8, DownThreshold: 2}
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, ExtraRTT: 20 * time.Millisecond, Trusted: true})
	tbl.Add(&Endpoint{Name: "home", Addr: homeAddr, ExtraRTT: 150 * time.Millisecond, Trusted: true})

	// Statically cloud wins.
	if best, _ := tbl.BestTrusted(); best.Name != "cloud" {
		t.Fatalf("static best %s", best.Name)
	}
	// One loss degrades cloud: home (healthy) now wins despite its RTT.
	tbl.RecordProbe("cloud", false, 0, 1)
	if best, _ := tbl.BestTrusted(); best.Name != "home" {
		t.Fatalf("degraded best %s", best.Name)
	}
	// Home down: degraded cloud wins again.
	tbl.RecordProbe("home", false, 0, 2)
	tbl.RecordProbe("home", false, 0, 3)
	if best, _ := tbl.BestTrusted(); best.Name != "cloud" {
		t.Fatalf("home-down best %s", best.Name)
	}
	// Everything down: fall back to the statically-best endpoint rather
	// than reporting none (a dark table still names a place to try).
	tbl.RecordProbe("cloud", false, 0, 4)
	best, ok := tbl.BestTrusted()
	if !ok || best.Name != "cloud" {
		t.Fatalf("all-down best %v %v", best, ok)
	}
}

// TestRouteFailover: flows pin to their endpoint and re-pin off it when
// it goes down; trusted flows never fail over to untrusted endpoints.
func TestRouteFailover(t *testing.T) {
	tbl := NewTable(devAddr)
	tbl.Health = HealthConfig{Window: 8, DownThreshold: 2}
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, ExtraRTT: 20 * time.Millisecond, Trusted: true})
	tbl.Add(&Endpoint{Name: "home", Addr: homeAddr, ExtraRTT: 150 * time.Millisecond, Trusted: true})
	tbl.Add(&Endpoint{Name: "sketchy", Addr: cloudAddr, ExtraRTT: time.Millisecond, Trusted: false})
	var moved []string
	tbl.OnFailover = func(f packet.Flow, from, to string) { moved = append(moved, from+"->"+to) }

	f1, f2 := testFlow(40000), testFlow(40001)
	if name, fo := tbl.Route("cloud", f1); name != "cloud" || fo {
		t.Fatalf("initial route %s %v", name, fo)
	}
	tbl.Route("cloud", f2)

	// Cloud dies: both flows re-pin to home — the trusted standby, not
	// the untrusted sketchy endpoint with the better RTT.
	tbl.RecordProbe("cloud", false, 0, 1)
	tbl.RecordProbe("cloud", false, 0, 2)
	if name, fo := tbl.Route("cloud", f1); name != "home" || !fo {
		t.Fatalf("failover route %s %v", name, fo)
	}
	if name, fo := tbl.Route("cloud", f2); name != "home" || !fo {
		t.Fatalf("failover route %s %v", name, fo)
	}
	// The pin is sticky: repeated routes stay on home without new
	// failovers, even after cloud recovers (no flap-back).
	if name, fo := tbl.Route("cloud", f1); name != "home" || fo {
		t.Fatalf("sticky route %s %v", name, fo)
	}
	tbl.RecordProbe("cloud", true, time.Millisecond, 3)
	if name, _ := tbl.Route("cloud", f1); name != "home" {
		t.Fatalf("flapped back to %s", name)
	}
	if tbl.Failovers() != 2 || len(moved) != 2 || moved[0] != "cloud->home" {
		t.Fatalf("failovers=%d moved=%v", tbl.Failovers(), moved)
	}
	if tbl.PinnedTo("home") != 2 {
		t.Fatalf("pinned to home: %d", tbl.PinnedTo("home"))
	}
	st := tbl.Stats()
	for _, e := range st.Endpoints {
		if e.Name == "cloud" && e.FailedOver != 2 {
			t.Fatalf("cloud failed-over count %d", e.FailedOver)
		}
	}

	// A flow pinned to a down endpoint with no trusted alternative stays
	// put rather than downgrading to sketchy.
	tbl.RecordProbe("cloud", false, 0, 4)
	tbl.RecordProbe("cloud", false, 0, 5)
	tbl.RecordProbe("home", false, 0, 6)
	tbl.RecordProbe("home", false, 0, 7)
	if name, fo := tbl.Route("cloud", f1); name != "home" || fo {
		t.Fatalf("trust downgrade: routed to %s (failover=%v)", name, fo)
	}
}

// TestProberDetectsOutage drives the full loop on the simulated clock:
// an injected outage window turns the endpoint health.Down after the probe
// timeouts accumulate, Route fails flows over, and the endpoint recovers
// through probation once the outage lifts.
func TestProberDetectsOutage(t *testing.T) {
	clock := &netsim.Clock{}
	tbl := NewTable(devAddr)
	tbl.Health = HealthConfig{
		Window: 8, DownThreshold: 2,
		ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 20 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond, RetryBackoffMax: 40 * time.Millisecond,
		ProbationProbes: 1,
	}
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, ExtraRTT: 2 * time.Millisecond, Trusted: true})
	tbl.Add(&Endpoint{Name: "home", Addr: homeAddr, ExtraRTT: 5 * time.Millisecond, Trusted: true})

	p := NewProber(tbl, clock)
	rng := netsim.NewRNG(7)
	cloudPath := netsim.NewFaultInjector(netsim.FaultConfig{
		DelayMin: 2 * time.Millisecond, DelayMax: 2 * time.Millisecond,
		Outages: []netsim.Outage{{From: 100 * time.Millisecond, Until: 300 * time.Millisecond}},
	}, rng.Fork())
	p.SetPath("cloud", cloudPath)
	p.SetPath("home", netsim.NewFaultInjector(netsim.FaultConfig{
		DelayMin: 5 * time.Millisecond, DelayMax: 5 * time.Millisecond,
	}, rng.Fork()))
	p.Start()

	clock.RunUntil(90 * time.Millisecond)
	if h := tbl.states["cloud"].State(); h != health.Healthy {
		t.Fatalf("pre-outage health %v", h)
	}
	if st := tbl.Stats(); st.Endpoints[0].SRTT != 2*time.Millisecond {
		t.Fatalf("srtt %v", st.Endpoints[0].SRTT)
	}

	// Inside the outage, after two probe timeouts: down. First lost
	// probe fires at 100ms, times out at 120ms; second at 110ms→130ms.
	clock.RunUntil(140 * time.Millisecond)
	if h := tbl.states["cloud"].State(); h != health.Down {
		t.Fatalf("mid-outage health %v", h)
	}
	f := testFlow(40000)
	if name, fo := tbl.Route("cloud", f); name != "home" || !fo {
		t.Fatalf("route during outage: %s %v", name, fo)
	}

	// After the outage the backoff-spaced probes bring it back.
	clock.RunUntil(500 * time.Millisecond)
	if h := tbl.states["cloud"].State(); h != health.Healthy {
		t.Fatalf("post-outage health %v", h)
	}
	// The flow stays pinned to its standby (no flap-back)…
	if name, _ := tbl.Route("cloud", f); name != "home" {
		t.Fatal("flow flapped back")
	}
	// …but fresh flows use the recovered endpoint again.
	if name, _ := tbl.Route("cloud", testFlow(40001)); name != "cloud" {
		t.Fatal("fresh flow avoided recovered endpoint")
	}
	p.Stop()

	st := tbl.Stats()
	var cloud EndpointStats
	for _, e := range st.Endpoints {
		if e.Name == "cloud" {
			cloud = e
		}
	}
	if cloud.ProbesSent == 0 || cloud.ProbesLost == 0 {
		t.Fatalf("probe counters %+v", cloud)
	}
	if st.Failovers != 1 {
		t.Fatalf("failovers %d", st.Failovers)
	}
}

// goldenProbeTrace feeds one endpoint a seeded probe-outcome stream whose
// loss rate changes every 500 probes (clean, flapping, lossy, dead) and
// hashes (health, probeDelay) after each probe.
func goldenProbeTrace(cfg HealthConfig, probes int) (uint64, [4]int) {
	tbl := NewTable(devAddr)
	tbl.Health = cfg
	tbl.Add(&Endpoint{Name: "cloud", Addr: cloudAddr, Trusted: true})
	lossBy := []float64{0.02, 0.15, 0.5, 0.97, 0.3, 0.08}
	rng := netsim.NewRNG(29)
	h := fnv.New64a()
	var seen [4]int
	var rec [9]byte
	for i := 0; i < probes; i++ {
		ok := !rng.Bool(lossBy[i/500%len(lossBy)])
		rtt := time.Duration(5+rng.Intn(40)) * time.Millisecond
		st := tbl.RecordProbe("cloud", ok, rtt, time.Duration(i)*time.Millisecond)
		seen[st]++
		rec[0] = uint8(st)
		binary.LittleEndian.PutUint64(rec[1:], uint64(tbl.probeDelay("cloud")))
		h.Write(rec[:])
	}
	return h.Sum64(), seen
}

// TestGoldenProbeTrace pins the probe ladder to hashes recorded before
// the state machine moved into internal/health.
func TestGoldenProbeTrace(t *testing.T) {
	cases := []struct {
		name string
		cfg  HealthConfig
		want uint64
	}{
		{"default", HealthConfig{}, 0x56489fbcca0cd9df},
		{"window8-down2-probation1", HealthConfig{Window: 8, DownThreshold: 2, ProbationProbes: 1}, 0x4c4fb09e3bdd9265},
	}
	for _, tc := range cases {
		got, seen := goldenProbeTrace(tc.cfg, 12000)
		// health.Probation is absent by design when one probe clears it.
		if seen[health.Degraded] < 100 || seen[health.Down] < 100 {
			t.Errorf("%s: states %v: the trace does not exercise the ladder", tc.name, seen)
		}
		if got != tc.want {
			t.Errorf("%s: trace hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
