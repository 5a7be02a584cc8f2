package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"pvn/internal/deployserver"
	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/openflow"
	"pvn/internal/pki"
	"pvn/internal/pvnc"
)

const testCfg = `
pvnc t
owner alice
device 10.0.0.5
middlebox pii pii-detect mode=block
chain c pii
policy 100 match proto=tcp dport=80 via=c action=forward
policy 0 match any action=forward
`

func testSrv(t *testing.T) *deployserver.Server {
	t.Helper()
	rootKey, _ := pki.GenerateKey(pki.NewDeterministicRand(1))
	root := pki.NewRootCA("R", rootKey, 0, 1<<40)
	rt := middlebox.NewRuntime(nil)
	mbx.RegisterBuiltins(rt, mbx.Deps{TrustStore: pki.NewTrustStore(root.Cert), NowSeconds: func() int64 { return 0 }})
	sw := openflow.NewSwitch("t-edge", nil)
	sw.Chains = rt
	policy := &discovery.ProviderPolicy{
		Provider: "t-isp", DeployServer: "here",
		Standards: []string{discovery.StandardMatchAction},
		Supported: map[string]int64{"pii-detect": 0},
	}
	return deployserver.New(policy, sw, rt, nil)
}

func TestDispatchFullSession(t *testing.T) {
	srv := testSrv(t)
	cfg, err := pvnc.Parse(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	neg := discovery.NewNegotiator("dev1", cfg, 100, discovery.StrategyReduce)

	// DM -> offer
	resp := dispatch(&request{Type: "dm", DM: neg.MakeDM()}, srv)
	if resp.Type != "offer" || resp.Offer == nil {
		t.Fatalf("dm response %+v", resp)
	}
	dec := neg.Evaluate(resp.Offer, 0)
	if !dec.Accept {
		t.Fatalf("offer rejected: %s", dec.Reason)
	}

	// deploy -> ack
	resp = dispatch(&request{Type: "deploy", Deploy: neg.BuildDeployRequest(resp.Offer, dec)}, srv)
	if resp.Type != "deploy_response" || !resp.Deploy.OK {
		t.Fatalf("deploy response %+v", resp)
	}

	// manifest: the hash reflects the (canonicalized) deployed config.
	resp = dispatch(&request{Type: "manifest", DeviceID: "dev1"}, srv)
	if resp.Manifest == nil || resp.Manifest.PVNCHash != dec.FinalConfig.Hash() {
		t.Fatalf("manifest %+v", resp.Manifest)
	}

	// usage (zero traffic so far)
	resp = dispatch(&request{Type: "usage", DeviceID: "dev1"}, srv)
	if resp.Type != "usage" || resp.Packets != 0 {
		t.Fatalf("usage %+v", resp)
	}

	// renew (no LeaseTTL on this server: succeeds, infinite lease)
	resp = dispatch(&request{Type: "renew", DeviceID: "dev1"}, srv)
	if resp.Type != "renewed" || resp.LeaseExpires != 0 {
		t.Fatalf("renew %+v", resp)
	}

	// teardown
	resp = dispatch(&request{Type: "teardown", DeviceID: "dev1"}, srv)
	if resp.Type != "usage" {
		t.Fatalf("teardown %+v", resp)
	}
	// second teardown errors
	resp = dispatch(&request{Type: "teardown", DeviceID: "dev1"}, srv)
	if resp.Error == "" {
		t.Fatal("double teardown succeeded")
	}
}

func TestDispatchErrors(t *testing.T) {
	srv := testSrv(t)
	cases := []*request{
		{Type: "dm"},
		{Type: "deploy"},
		{Type: "usage", DeviceID: "ghost"},
		{Type: "renew", DeviceID: "ghost"},
		{Type: "bogus"},
	}
	for _, req := range cases {
		if resp := dispatch(req, srv); resp.Error == "" {
			t.Errorf("request %+v produced no error", req)
		}
	}
	// Manifest for unknown device returns nil manifest, not an error.
	if resp := dispatch(&request{Type: "manifest", DeviceID: "ghost"}, srv); resp.Error != "" || resp.Manifest != nil {
		t.Errorf("ghost manifest %+v", resp)
	}
}

// TestDispatchDMWithoutDevice: a DM that names no device gets no offer
// and takes no slot in the provider's offer book.
func TestDispatchDMWithoutDevice(t *testing.T) {
	srv := testSrv(t)
	var req request
	line := `{"type":"dm","dm":{"standards":["match-action/1"],"required_types":["pii-detect"]}}`
	if err := json.Unmarshal([]byte(line), &req); err != nil {
		t.Fatal(err)
	}
	if resp := dispatch(&req, srv); resp.Offer != nil {
		t.Fatalf("DM without a device ID answered with offer %s", resp.Offer.OfferID)
	}
	if st := srv.Provider.OfferStatus("t-isp-1", 0); st != discovery.OfferUnknown {
		t.Fatalf("offer book holds t-isp-1 (state %v) after a refused DM", st)
	}
	req.DM.DeviceID = "dev1"
	if resp := dispatch(&req, srv); resp.Offer == nil || resp.Offer.OfferID != "t-isp-1" {
		t.Fatalf("first DM naming a device: %+v, want offer t-isp-1", resp)
	}
}

// TestDispatchSweepsLapsedLeases: pvnd runs no sweeper goroutine, so
// every request, whatever its type, first reclaims the leases that have
// lapsed. The next request after a lease runs out leaves the device
// with no deployment, no rules and no middlebox instance.
func TestDispatchSweepsLapsedLeases(t *testing.T) {
	cfg, err := pvnc.Parse(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*request{
		{Type: "dm"},
		{Type: "deploy"},
		{Type: "manifest", DeviceID: "dev1"},
		{Type: "usage", DeviceID: "dev1"},
		{Type: "renew", DeviceID: "dev1"},
		{Type: "teardown", DeviceID: "dev1"},
		{Type: "bogus"},
	}
	for _, req := range reqs {
		var now time.Duration
		srv := testSrv(t)
		srv.Now = func() time.Duration { return now }
		srv.LeaseTTL = time.Minute
		neg := discovery.NewNegotiator("dev1", cfg, 100, discovery.StrategyReduce)
		offer := dispatch(&request{Type: "dm", DM: neg.MakeDM()}, srv).Offer
		dec := neg.Evaluate(offer, 0)
		if resp := dispatch(&request{Type: "deploy", Deploy: neg.BuildDeployRequest(offer, dec)}, srv); !resp.Deploy.OK {
			t.Fatalf("deploy: %s", resp.Deploy.Reason)
		}
		if len(srv.Runtime.InstanceIDs()) == 0 {
			t.Fatal("deployment booted no instance")
		}

		now = time.Minute - 1
		dispatch(&request{Type: "usage", DeviceID: "dev1"}, srv)
		if srv.Deployment("dev1") == nil {
			t.Fatalf("%s: lease reclaimed before it lapsed", req.Type)
		}

		now = time.Minute
		resp := dispatch(req, srv)
		if srv.Deployment("dev1") != nil || len(srv.Runtime.InstanceIDs()) != 0 || srv.Switch.Table.Len() != 0 {
			t.Fatalf("%s after the lease lapsed: deployment %v, %d instances, %d rules left",
				req.Type, srv.Deployment("dev1"), len(srv.Runtime.InstanceIDs()), srv.Switch.Table.Len())
		}
		if req.DeviceID == "dev1" && req.Type != "manifest" && resp.Error == "" {
			t.Fatalf("%s of a lapsed lease succeeded: %+v", req.Type, resp)
		}
	}
}

// serveTest runs serve on a loopback listener, dropping connections idle
// past idle and serving at most limit at once, and signals every close of
// a connection it accepted, served or refused, on the channel it returns.
func serveTest(t *testing.T, idle time.Duration, limit int) (addr string, closed <-chan struct{}) {
	t.Helper()
	srv := testSrv(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// More slots than connections any test opens, so a close never
	// blocks on a signal nobody reads.
	done := make(chan struct{}, 16)
	go serve(signalListener{ln, done}, srv, idle, limit)
	return ln.Addr().String(), done
}

// signalListener hands out connections that signal on closed when they
// are closed.
type signalListener struct {
	net.Listener
	closed chan<- struct{}
}

func (l signalListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return signalConn{conn, l.closed}, nil
}

type signalConn struct {
	net.Conn
	closed chan<- struct{}
}

func (c signalConn) Close() error {
	err := c.Conn.Close()
	c.closed <- struct{}{}
	return err
}

// TestHandleOverRealConn drives the JSON framing over a TCP connection.
func TestHandleOverRealConn(t *testing.T) {
	addr, _ := serveTest(t, connIdleTimeout, maxConns)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	requestOffer(t, conn)
}

// requestOffer sends a DM on conn and expects the daemon's offer back.
func requestOffer(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)

	cfg, _ := pvnc.Parse(testCfg)
	neg := discovery.NewNegotiator("dev1", cfg, 100, discovery.StrategyReduce)
	if err := enc.Encode(&request{Type: "dm", DM: neg.MakeDM()}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != "offer" || resp.Offer == nil || resp.Offer.Provider != "t-isp" {
		t.Fatalf("offer over wire %+v", resp)
	}
}

// TestHandleDropsSilentClient: a client that connects and sends nothing
// is dropped once the idle deadline passes, so it pins neither the
// connection's goroutine nor its socket.
func TestHandleDropsSilentClient(t *testing.T) {
	addr, returned := serveTest(t, 100*time.Millisecond, maxConns)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("handle still serving a silent client 2s after a 100ms idle deadline")
	}
	expectClosed(t, conn)
}

// TestHandleDropsOversizeLine: a request line longer than the cap closes
// that connection instead of growing its buffer, and the daemon goes on
// serving other clients.
func TestHandleDropsOversizeLine(t *testing.T) {
	addr, returned := serveTest(t, 2*time.Second, maxConns)
	big, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	// A string that never ends is a valid request prefix, so only the
	// cap stops the read. The daemon may close while the line is still
	// being written, so the write's error is not the check; the close
	// is.
	go big.Write(append([]byte(`{"type":"`), bytes.Repeat([]byte("x"), maxRequestLine)...))
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("handle still reading a line past maxRequestLine")
	}
	expectClosed(t, big)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	requestOffer(t, conn)
}

// TestServeRefusesPastLimit: with limit connections being served, one
// more is closed at once and counted, and once a served client leaves, a
// new one is served.
func TestServeRefusesPastLimit(t *testing.T) {
	const limit = 3
	addr, closed := serveTest(t, 5*time.Second, limit)
	waitClose := func(what string) {
		t.Helper()
		select {
		case <-closed:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no connection closed within 2s", what)
		}
	}
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	before := refusedConns.Load()
	var held []net.Conn
	for i := 0; i < limit; i++ {
		conn := dial()
		requestOffer(t, conn) // served, and its handle waits for the next line
		held = append(held, conn)
	}
	expectClosed(t, dial())
	waitClose("the connection past the limit")
	if n := refusedConns.Load() - before; n != 1 {
		t.Fatalf("%d connections refused, want 1", n)
	}

	held[0].Close()
	waitClose("the client that left")
	requestOffer(t, dial())
	if n := refusedConns.Load() - before; n != 1 {
		t.Fatalf("%d connections refused after a slot freed, want 1", n)
	}
}

// expectClosed reads from conn until the daemon's close shows.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after handle returned")
	}
}

// TestClampToDeadline covers the -timeout retry budget: the final
// backoff delay must be clamped to the remaining budget (one last
// attempt at the deadline edge), never overshoot it, and a spent
// budget must stop the loop.
func TestClampToDeadline(t *testing.T) {
	cases := []struct {
		name      string
		delay     time.Duration
		remaining time.Duration
		want      time.Duration
		ok        bool
	}{
		{"fits", 200 * time.Millisecond, time.Second, 200 * time.Millisecond, true},
		{"exact", time.Second, time.Second, time.Second, true},
		{"clamped", 3 * time.Second, 250 * time.Millisecond, 250 * time.Millisecond, true},
		{"spent", 100 * time.Millisecond, 0, 0, false},
		{"overspent", 100 * time.Millisecond, -time.Second, 0, false},
	}
	for _, c := range cases {
		got, ok := clampToDeadline(c.delay, c.remaining)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: clampToDeadline(%v, %v) = (%v, %v), want (%v, %v)",
				c.name, c.delay, c.remaining, got, ok, c.want, c.ok)
		}
	}
}
