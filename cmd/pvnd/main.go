// Command pvnd is the PVN deployment-server daemon: the process an
// access network runs to answer discovery messages, install PVNCs into
// its edge switch + middlebox runtime, serve manifests for auditing and
// tear deployments down — all over a newline-delimited JSON TCP API.
//
// Usage:
//
//	pvnd serve  -listen 127.0.0.1:7474
//	pvnd client -connect 127.0.0.1:7474 -pvnc config.pvnc -budget 1000
//
// The client subcommand performs a full device-side session against a
// running daemon: DM -> offer -> deploy -> manifest -> teardown.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"pvn/internal/core"
	"pvn/internal/dataplane"
	"pvn/internal/deployserver"
	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/overlay"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
	"pvn/internal/tunnel"
)

// request is the daemon's wire request envelope.
type request struct {
	Type     string                   `json:"type"` // dm | deploy | manifest | usage | renew | teardown
	DM       *discovery.DM            `json:"dm,omitempty"`
	Deploy   *discovery.DeployRequest `json:"deploy,omitempty"`
	DeviceID string                   `json:"device_id,omitempty"`
}

// response is the daemon's wire response envelope.
type response struct {
	Type     string                    `json:"type"`
	Error    string                    `json:"error,omitempty"`
	Offer    *discovery.Offer          `json:"offer,omitempty"`
	Deploy   *discovery.DeployResponse `json:"deploy,omitempty"`
	Manifest *deployserver.Manifest    `json:"manifest,omitempty"`
	Packets  int64                     `json:"packets,omitempty"`
	Bytes    int64                     `json:"bytes,omitempty"`
	// LeaseExpires is the deployment's new lease expiry after a renew
	// (daemon-relative time; zero means the lease never expires).
	LeaseExpires time.Duration `json:"lease_expires,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pvnd {serve|client} [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		serveMain(os.Args[2:])
	case "client":
		clientMain(os.Args[2:])
	case "advertise":
		advertiseMain(os.Args[2:])
	default:
		fmt.Fprintln(os.Stderr, "usage: pvnd {serve|client|advertise} [flags]")
		os.Exit(2)
	}
}

// advertiseMain emits a signed overlay offer-advertisement record as
// JSON: the blob a provider publishes under its service key in the
// decentralized discovery overlay (DESIGN.md §12). Devices re-verify
// the signature and the service-key binding at fetch time, so the
// output is self-certifying — it can be relayed by any untrusted node.
func advertiseMain(args []string) {
	fs := flag.NewFlagSet("advertise", flag.ExitOnError)
	provider := fs.String("provider", "pvnd-isp", "provider name the advertisement is signed as")
	deploySrv := fs.String("deploy-server", "127.0.0.1:7474", "deploy server address quoted in the ad")
	service := fs.String("service", "pvn", "overlay service name the record is published under")
	supported := fs.String("supported", "tls-verify=3,pii-detect=3,transcoder=5", "comma-separated type=price list")
	seq := fs.Uint64("seq", 1, "advertisement sequence number (higher supersedes)")
	ttl := fs.Duration("offer-ttl", 30*time.Second, "how long offers derived from the ad stay deployable")
	keySeed := fs.Uint64("key-seed", 0, "deterministic provider-key seed (0 = fresh random key)")
	fs.Parse(args)

	prices := map[string]int64{}
	for _, ent := range strings.Split(*supported, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, price, ok := strings.Cut(ent, "=")
		if !ok {
			log.Fatalf("pvnd advertise: -supported entry %q is not type=price", ent)
		}
		p, err := strconv.ParseInt(price, 10, 64)
		if err != nil || p < 0 {
			log.Fatalf("pvnd advertise: bad price in %q", ent)
		}
		prices[name] = p
	}

	var rng io.Reader // nil = crypto/rand
	if *keySeed != 0 {
		rng = pki.NewDeterministicRand(*keySeed)
	}
	kp, err := pki.GenerateKey(rng)
	if err != nil {
		log.Fatal(err)
	}
	ad := overlay.OfferAd{
		Provider:     *provider,
		DeployServer: *deploySrv,
		Standards:    []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
		Supported:    prices,
		OfferTTL:     *ttl,
	}
	rec := overlay.NewOfferRecord(*service, ad, kp, *seq)
	if err := rec.Verify(); err != nil {
		log.Fatalf("pvnd advertise: produced unverifiable record: %v", err)
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(blob, '\n'))
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7474", "API listen address")
	provider := fs.String("provider", "pvnd-isp", "provider name quoted in offers")
	dpMode := fs.String("dataplane", "serial", "packet pipeline: serial (single-threaded switch) or sharded (parallel worker pool)")
	dpShards := fs.Int("shards", 0, "shard/worker count for -dataplane=sharded (0 = GOMAXPROCS)")
	offerTTL := fs.Duration("offer-ttl", 30*time.Second, "how long quoted offers stay deployable")
	leaseTTL := fs.Duration("lease-ttl", 0, "deployment lease length; 0 = deployments last until teardown")
	leaseSweep := fs.Duration("lease-sweep", 10*time.Second, "how often lapsed leases are reclaimed (with -lease-ttl)")
	mbxFailPolicy := fs.String("mbx-fail-policy", "", "default middlebox failure policy when a type declares none: open or closed (empty = closed)")
	mbxBreaker := fs.Int("mbx-breaker-threshold", 8, "failures within the health window that open an instance's circuit breaker")
	mbxBackoff := fs.Duration("mbx-restart-backoff", 200*time.Millisecond, "initial broken-instance restart cooldown (doubles per re-open, capped at 10s)")
	fs.Parse(args)
	if *dpMode != "serial" && *dpMode != "sharded" {
		log.Fatalf("pvnd: -dataplane must be serial or sharded, got %q", *dpMode)
	}
	defaultPolicy, err := middlebox.ParseFailPolicy(*mbxFailPolicy)
	if err != nil {
		log.Fatalf("pvnd: -mbx-fail-policy: %v", err)
	}

	start := time.Now()
	now := func() time.Duration { return time.Since(start) }

	rootKey, err := pki.GenerateKey(pki.NewDeterministicRand(1))
	if err != nil {
		log.Fatal(err)
	}
	root := pki.NewRootCA("pvnd Root", rootKey, 0, 1<<40)
	rt := middlebox.NewRuntime(now)
	rt.Supervisor = middlebox.SupervisorConfig{
		DefaultPolicy:    defaultPolicy,
		BreakerThreshold: *mbxBreaker,
		RestartBackoff:   *mbxBackoff,
	}
	// Log state transitions, not per-packet events: a panic storm must
	// not become a log storm.
	rt.OnEvent = func(ev middlebox.SupEvent) {
		switch ev.Kind {
		case middlebox.EventBreakerOpen, middlebox.EventRestart, middlebox.EventRecovered:
			log.Printf("pvnd: mbx %s (%s, owner %s): %s — %s", ev.Instance, ev.Type, ev.Owner, ev.Kind, ev.Detail)
		}
	}
	mbx.RegisterBuiltins(rt, mbx.Deps{
		TrustStore: pki.NewTrustStore(root.Cert),
		NowSeconds: func() int64 { return int64(time.Since(start).Seconds()) },
	})
	sw := openflow.NewSwitch("pvnd-edge", now)
	sw.Chains = rt

	policy := &discovery.ProviderPolicy{
		Provider:     *provider,
		DeployServer: *listen,
		Standards:    []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
		Supported: map[string]int64{
			"tls-verify": 0, "pii-detect": 0, "tracker-block": 0, "malware-scan": 0,
			"classifier": 0, "compressor": 0, "prefetcher": 0, "tcp-proxy": 0,
			"dns-validate": 0, "transcoder": 100, "user-script": 50,
		},
		OfferTTL: *offerTTL,
	}
	srv := deployserver.New(policy, sw, rt, now)
	srv.LeaseTTL = *leaseTTL
	if *leaseTTL > 0 {
		//lint:allow goleak daemon-lifetime lease sweeper; pvnd has no shutdown path short of process exit
		go func() {
			for range time.Tick(*leaseSweep) {
				if expired := srv.SweepExpired(); len(expired) > 0 {
					log.Printf("pvnd: reclaimed %d lapsed leases: %v", len(expired), expired)
				}
			}
		}()
		log.Printf("pvnd: deployment leases: ttl=%v sweep=%v", *leaseTTL, *leaseSweep)
	}

	// -dataplane=sharded fronts the switch with the parallel pipeline:
	// deployments mirror their flow rules and meters into the pipeline's
	// table (ExtraRules), and every worker calls the one middlebox
	// runtime, which serializes only packets of the same owner.
	if *dpMode == "sharded" {
		dp := dataplane.New(dataplane.Config{
			Shards: *dpShards,
			Chains: rt,
			Now:    now,
		})
		srv.ExtraRules = dp.Table()
		dp.Start()
		defer dp.Stop()
		log.Printf("pvnd: sharded dataplane up: %d shards", dp.Shards())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("pvnd: listen: %v", err)
	}
	// Discovery also answers over UDP datagrams on the same port (the
	// paper's DHCP/UPnP-style zone flooding); deployment stays on TCP.
	if udpConn, err := net.ListenPacket("udp", *listen); err == nil {
		go discovery.ServeUDP(udpConn, policy, now)
		log.Printf("pvnd: UDP discovery on %s", udpConn.LocalAddr())
	} else {
		log.Printf("pvnd: UDP discovery disabled: %v", err)
	}
	log.Printf("pvnd: serving PVN deployments on %s as %q", ln.Addr(), *provider)
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("pvnd: accept: %v", err)
		}
		go handle(conn, srv)
	}
}

func handle(conn net.Conn, srv *deployserver.Server) {
	defer conn.Close()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		// The deployment server locks internally, so concurrent client
		// connections dispatch straight in.
		enc.Encode(dispatch(&req, srv))
	}
}

func dispatch(req *request, srv *deployserver.Server) *response {
	switch req.Type {
	case "dm":
		if req.DM == nil {
			return &response{Type: "error", Error: "missing dm"}
		}
		return &response{Type: "offer", Offer: srv.HandleDM(req.DM)}
	case "deploy":
		if req.Deploy == nil {
			return &response{Type: "error", Error: "missing deploy request"}
		}
		return &response{Type: "deploy_response", Deploy: srv.HandleDeploy(req.Deploy)}
	case "manifest":
		return &response{Type: "manifest", Manifest: srv.BuildManifest(req.DeviceID)}
	case "usage":
		p, b, ok := srv.Usage(req.DeviceID)
		if !ok {
			return &response{Type: "error", Error: "no deployment"}
		}
		return &response{Type: "usage", Packets: p, Bytes: b}
	case "renew":
		exp, ok := srv.Renew(req.DeviceID)
		if !ok {
			return &response{Type: "error", Error: "no deployment (lease lapsed? redeploy)"}
		}
		return &response{Type: "renewed", LeaseExpires: exp}
	case "teardown":
		p, b, err := srv.Teardown(req.DeviceID)
		if err != nil {
			return &response{Type: "error", Error: err.Error()}
		}
		return &response{Type: "usage", Packets: p, Bytes: b}
	}
	return &response{Type: "error", Error: fmt.Sprintf("unknown request type %q", req.Type)}
}

// clampToDeadline fits a retry delay inside the remaining -timeout
// budget. A delay that would overshoot is clamped to exactly the time
// left — the client gets one final attempt at the deadline edge instead
// of either giving up with budget still on the table or sleeping past
// the timeout the user asked for. ok=false means the budget is spent.
func clampToDeadline(delay, remaining time.Duration) (clamped time.Duration, ok bool) {
	if remaining <= 0 {
		return 0, false
	}
	if delay > remaining {
		return remaining, true
	}
	return delay, true
}

func clientMain(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	connect := fs.String("connect", "127.0.0.1:7474", "daemon address")
	pvncPath := fs.String("pvnc", "", "PVNC file to deploy")
	budget := fs.Int64("budget", 1000, "budget in microcredits")
	deviceID := fs.String("device", "pvnd-client", "device identifier")
	retries := fs.Int("retries", 3, "discovery/deploy retries before giving up on the daemon")
	retryBackoff := fs.Duration("retry-backoff", 200*time.Millisecond, "initial retry delay (doubles per retry, capped at 5s)")
	timeout := fs.Duration("timeout", 15*time.Second, "overall deadline for reaching a deployment")
	fallback := fs.String("fallback-tunnel", "", "trusted remote PVN address to tunnel to when the daemon yields no deployment (empty = fail hard)")
	fallbackRTT := fs.Duration("fallback-rtt", 80*time.Millisecond, "interdomain RTT penalty assumed for -fallback-tunnel")
	probeInterval := fs.Duration("tunnel-probe-interval", 50*time.Millisecond, "health-probe cadence for tunnel endpoints")
	downThreshold := fs.Int("tunnel-down-threshold", 4, "lost probes within the health window that mark a tunnel endpoint down")
	drainDeadline := fs.Duration("roam-drain-deadline", core.DefaultDrainDeadline, "how long in-flight flows may drain through the old network after a make-before-break roam")
	fs.Parse(args)

	if *pvncPath == "" {
		log.Fatal("pvnd client: -pvnc is required")
	}
	data, err := os.ReadFile(*pvncPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := pvnc.Parse(string(data))
	if err != nil {
		log.Fatal(err)
	}
	if errs := cfg.Validate(); len(errs) > 0 {
		log.Fatalf("invalid PVNC: %v", errs)
	}

	// fallbackOrDie tunnels out to the configured trusted PVN location
	// (Fig 1c) instead of failing, when one is configured.
	fallbackOrDie := func(why string) {
		if *fallback == "" {
			log.Fatalf("pvnd client: %s (no -fallback-tunnel configured)", why)
		}
		addr, err := packet.ParseIPv4(*fallback)
		if err != nil {
			log.Fatalf("pvnd client: %s; bad -fallback-tunnel: %v", why, err)
		}
		tt := tunnel.NewTable(cfg.Device)
		tt.Health = tunnel.HealthConfig{ProbeInterval: *probeInterval, DownThreshold: *downThreshold}
		// Health transitions, not per-probe events: a flapping endpoint
		// must not become a log storm.
		tt.OnEvent = func(ev tunnel.Event) {
			log.Printf("pvnd client: tunnel %s: %s -> %s — %s", ev.Endpoint, ev.From, ev.To, ev.Detail)
		}
		tt.OnFailover = func(f packet.Flow, from, to string) {
			log.Printf("pvnd client: tunnel failover: flow re-pinned %s -> %s", from, to)
		}
		tt.Add(&tunnel.Endpoint{Name: "fallback", Addr: addr, ExtraRTT: *fallbackRTT, Trusted: true})
		ep, _ := tt.BestTrusted()
		log.Printf("pvnd client: %s; falling back to tunnel via %s (%s, +%v RTT, probes every %v, down after %d lost)",
			why, ep.Name, *fallback, ep.ExtraRTT, *probeInterval, *downThreshold)
		os.Exit(0)
	}

	conn, err := net.Dial("tcp", *connect)
	if err != nil {
		fallbackOrDie(fmt.Sprintf("dial %s: %v", *connect, err))
	}
	defer conn.Close()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	// tryCall surfaces transport failures (daemon gone, read timeout) to
	// the caller; daemon-reported errors are always fatal.
	tryCall := func(req *request) (*response, error) {
		if err := enc.Encode(req); err != nil {
			return nil, err
		}
		var resp response
		if err := dec.Decode(&resp); err != nil {
			return nil, err
		}
		if resp.Error != "" {
			log.Fatalf("daemon error: %s", resp.Error)
		}
		return &resp, nil
	}
	call := func(req *request) *response {
		resp, err := tryCall(req)
		if err != nil {
			log.Fatal(err)
		}
		return resp
	}

	log.Printf("pvnd client: roam policy: make-before-break, drain deadline %v", *drainDeadline)
	neg := discovery.NewNegotiator(*deviceID, cfg, *budget, discovery.StrategyReduce)
	backoff := discovery.Backoff{Initial: *retryBackoff}
	deadline := time.Now().Add(*timeout)

	// Bound the whole discovery/deploy exchange by -timeout: without a
	// connection deadline a daemon that accepts but never answers would
	// park the client in Decode forever and the retry budget below would
	// never run. Cleared once deployed — the session itself has no
	// deadline.
	conn.SetDeadline(deadline)

	// Discovery and deploy retry on transient failures (no offer, offer
	// expired mid-flight, busy daemon) with capped exponential backoff.
	var depResp *response
	for attempt := 0; ; attempt++ {
		dm := neg.MakeDM()
		log.Printf("-> DM seq=%d types=%v (attempt %d/%d)", dm.Seq, dm.RequiredTypes, attempt+1, *retries+1)
		offerResp, err := tryCall(&request{Type: "dm", DM: dm})
		if err != nil {
			fallbackOrDie(fmt.Sprintf("daemon unresponsive: %v", err))
		}
		if offerResp.Offer != nil {
			offer := offerResp.Offer
			log.Printf("<- offer %s: %d types, cost=%d", offer.OfferID, len(offer.SupportedTypes), offer.TotalCost)
			dec2 := neg.Evaluate(offer, 0)
			if !dec2.Accept {
				fallbackOrDie("offer unacceptable: " + dec2.Reason)
			}
			depResp, err = tryCall(&request{Type: "deploy", Deploy: neg.BuildDeployRequest(offer, dec2)})
			if err != nil {
				fallbackOrDie(fmt.Sprintf("daemon unresponsive: %v", err))
			}
			if depResp.Deploy.OK {
				break
			}
			log.Printf("<- deploy NACK: %s", depResp.Deploy.Reason)
		} else {
			log.Printf("<- no offer")
		}
		if attempt >= *retries {
			fallbackOrDie(fmt.Sprintf("no deployment after %d attempts", attempt+1))
		}
		delay, ok := clampToDeadline(backoff.Delay(attempt, nil), time.Until(deadline))
		if !ok {
			fallbackOrDie("deadline exceeded")
		}
		time.Sleep(delay)
	}
	conn.SetDeadline(time.Time{})
	log.Printf("<- deployed: cookie=%d dhcp-refresh=%v", depResp.Deploy.Cookie, depResp.Deploy.DHCPRefresh)

	man := call(&request{Type: "manifest", DeviceID: *deviceID})
	log.Printf("<- manifest: hash=%.16s... types=%v rules=%d", man.Manifest.PVNCHash, man.Manifest.InstanceTypes, man.Manifest.RuleCount)

	renew := call(&request{Type: "renew", DeviceID: *deviceID})
	log.Printf("<- lease renewed: expires=%v", renew.LeaseExpires)

	down := call(&request{Type: "teardown", DeviceID: *deviceID})
	log.Printf("<- teardown: %d packets / %d bytes carried", down.Packets, down.Bytes)
}
