package mbx

import (
	"testing"

	"pvn/internal/packet"
	"pvn/internal/pki"
)

// segAt builds a segment of the flow srv:443 -> dev:sport with an
// explicit sequence number — the raw material for split TLS records.
func segAt(t *testing.T, sport uint16, seq uint32, payload []byte) []byte {
	t.Helper()
	return flowSeg(t, sport, false, 0, seq, payload)
}

// helloAt sends the ClientHello on the SAME connection the certificate
// will arrive on (dev:sport -> srv:443), as real TLS does.
func helloAt(t *testing.T, f *tlsFixture, sport uint16, sni string) {
	t.Helper()
	if _, err := runChain(t, f.rt, flowSeg(t, sport, true, 0, 0, clientHello(t, sni))); err != nil {
		t.Fatal(err)
	}
}

// TestTLSVerifyMultiSegmentCertificate: a valid certificate chain split
// across three TCP segments — delivered out of order — still verifies,
// and an invalid one split the same way is still blocked on the segment
// that completes it.
func TestTLSVerifyMultiSegmentCertificate(t *testing.T) {
	run := func(valid bool) (verdicts []bool, blocked int64) {
		f := newTLSFixture(t)
		const sport = 45443
		helloAt(t, f, sport, "www.example.com")

		subject := "www.example.com"
		if !valid {
			subject = "someone-else.example"
		}
		chain := f.leafFor(t, subject, 0, 1_000_000)
		rec := packet.BuildCertificateRecord(pki.EncodeChain(chain))
		wire, err := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{rec}})
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) < 60 {
			t.Fatalf("record too small to split: %d bytes", len(wire))
		}
		// Split into three parts and deliver 1st, 3rd, 2nd.
		a, b, c := wire[:20], wire[20:40], wire[40:]
		parts := []struct {
			seq  uint32
			data []byte
		}{
			{0, a},
			{40, c},
			{20, b},
		}
		for _, part := range parts {
			out, _, err := f.rt.ExecuteChain("alice/t", segAt(t, sport, part.seq, part.data))
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, out != nil)
		}
		return verdicts, f.box.Blocked
	}

	// Valid chain: every segment passes.
	verdicts, blocked := run(true)
	for i, ok := range verdicts {
		if !ok {
			t.Fatalf("valid chain: segment %d blocked", i)
		}
	}
	if blocked != 0 {
		t.Fatalf("valid chain: blocked=%d", blocked)
	}

	// Invalid chain: the first two segments pass (record incomplete),
	// the completing segment is dropped.
	verdicts, blocked = run(false)
	if !verdicts[0] || !verdicts[1] {
		t.Fatal("incomplete record segments should pass")
	}
	if verdicts[2] {
		t.Fatal("completing segment of invalid chain passed")
	}
	if blocked == 0 {
		t.Fatal("blocked counter not incremented")
	}
}

// TestTLSVerifyBlockedFlowStaysBlocked: once a flow fails verification,
// its later segments are dropped without reprocessing.
func TestTLSVerifyBlockedFlowStaysBlocked(t *testing.T) {
	f := newTLSFixture(t)
	const sport = 45444
	helloAt(t, f, sport, "bank.example")
	chain := f.leafFor(t, "phish.example", 0, 1_000_000)
	cert := packet.BuildCertificateRecord(pki.EncodeChain(chain))
	wire, _ := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{cert}})

	if out, _, _ := f.rt.ExecuteChain("alice/t", segAt(t, sport, 0, wire)); out != nil {
		t.Fatal("bad cert passed")
	}
	// Follow-up application data on the same flow is dropped too.
	appData, _ := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{packet.BuildApplicationData([]byte("post-handshake"))}})
	out, _, err := f.rt.ExecuteChain("alice/t", segAt(t, sport, uint32(len(wire)), appData))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatal("blocked flow's later segment passed")
	}
}

// TestTLSVerifyRetransmissionHarmless: an exact retransmission of the
// certificate segment does not double-verify or flip the verdict.
func TestTLSVerifyRetransmissionHarmless(t *testing.T) {
	f := newTLSFixture(t)
	const sport = 45445
	helloAt(t, f, sport, "www.example.com")
	chain := f.leafFor(t, "www.example.com", 0, 1_000_000)
	cert := packet.BuildCertificateRecord(pki.EncodeChain(chain))
	wire, _ := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{cert}})

	for i := 0; i < 3; i++ { // original + two retransmissions
		out, _, err := f.rt.ExecuteChain("alice/t", segAt(t, sport, 0, wire))
		if err != nil || out == nil {
			t.Fatalf("retransmission %d blocked", i)
		}
	}
	if f.box.Checked != 1 {
		t.Fatalf("chain verified %d times, want 1", f.box.Checked)
	}
}

// flowSeg builds one segment of the connection dev:sport <-> srv:443 in
// either direction, with explicit flags and sequence number.
func flowSeg(t testing.TB, sport uint16, toServer bool, flags byte, seq uint32, payload []byte) []byte {
	t.Helper()
	ip := &packet.IPv4{Src: srvIP, Dst: devIP, Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 443, DstPort: sport, Seq: seq, Flags: flags}
	if toServer {
		ip.Src, ip.Dst = devIP, srvIP
		tcp.SrcPort, tcp.DstPort = sport, 443
	}
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := packet.SerializeToBytes(ip, tcp, packet.Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// clientHello is the wire bytes of a ClientHello record for sni.
func clientHello(t testing.TB, sni string) []byte {
	t.Helper()
	rec := packet.BuildClientHello(sni, [32]byte{}, []uint16{1})
	body, err := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{rec}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// connFlow is the directional flow of dev:sport <-> srv:443.
func connFlow(t testing.TB, sport uint16, toServer bool) packet.Flow {
	t.Helper()
	flow, _ := packet.FlowOf(packet.Decode(flowSeg(t, sport, toServer, 0, 0, nil), packet.LayerTypeIPv4))
	return flow
}

// edgeSeg builds a segment of dev:sport <-> srv:443 at the sequence
// number its direction's stream expects next, where a FIN or RST
// counts.
func edgeSeg(t testing.TB, box *TLSVerify, sport uint16, toServer bool, flags byte) []byte {
	t.Helper()
	next, ok := box.asm.Next(connFlow(t, sport, toServer))
	if !ok {
		t.Fatalf("port %d: no stream toward the server=%v", sport, toServer)
	}
	return flowSeg(t, sport, toServer, flags, next, nil)
}

// certWire is the wire bytes of a Certificate record with a chain for
// subject.
func certWire(t *testing.T, f *tlsFixture, subject string) []byte {
	t.Helper()
	rec := packet.BuildCertificateRecord(pki.EncodeChain(f.leafFor(t, subject, 0, 1_000_000)))
	wire, err := packet.SerializeToBytes(&packet.TLS{Records: []packet.TLSRecord{rec}})
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestTLSVerifyForgetsClosedFlows: an open connection is forgotten, with
// both its streams, at its RST or at its second FIN; a blocked one
// keeps only its small tombstone.
func TestTLSVerifyForgetsClosedFlows(t *testing.T) {
	f := newTLSFixture(t)
	hello := clientHello(t, "www.example.com")
	appData := []byte{23, 3, 3, 0, 1, 'x'}
	const n = 2000
	for i := 0; i < n; i++ {
		sport := uint16(20000 + i)
		runChain(t, f.rt, flowSeg(t, sport, true, 0, 0, hello))
		reply := appData
		if i%3 == 2 { // a bad record blocks the connection
			reply = []byte{0xff, 3, 3, 0, 0}
		}
		runChain(t, f.rt, flowSeg(t, sport, false, 0, 0, reply))
		var closing [][]byte
		switch i % 3 {
		case 0: // both FINs, the server's first
			closing = [][]byte{
				edgeSeg(t, f.box, sport, false, packet.TCPFin|packet.TCPAck),
				edgeSeg(t, f.box, sport, true, packet.TCPFin|packet.TCPAck),
			}
		case 1: // an RST from either side
			closing = [][]byte{edgeSeg(t, f.box, sport, i%2 == 0, packet.TCPRst)}
		case 2:
			closing = [][]byte{
				flowSeg(t, sport, true, packet.TCPFin|packet.TCPAck, uint32(len(hello)), nil),
				flowSeg(t, sport, false, packet.TCPRst, uint32(len(reply)), nil),
			}
		}
		for _, seg := range closing {
			if out, err := runChain(t, f.rt, seg); err != nil || out == nil {
				t.Fatalf("connection %d: a closing segment was dropped (%v)", i, err)
			}
		}
	}
	if streams := f.box.asm.Flows(); streams != 0 {
		t.Fatalf("after %d closed connections %d streams remain", n, streams)
	}
	if got, want := len(f.box.flows), n/3; got != want {
		t.Fatalf("%d connections tracked, want the %d blocked ones", got, want)
	}
	for flow, st := range f.box.flows {
		if !st.blocked {
			t.Fatalf("open connection %v outlived its close", flow)
		}
	}
}

// TestTLSVerifyHalfClose: one side's FIN does not end the connection.
// The client closes its half right after the ClientHello; the server's
// certificate then arrives in three segments, the last one carrying
// the server's FIN and overtaking the middle one. It is verified
// against the SNI and passes.
func TestTLSVerifyHalfClose(t *testing.T) {
	for _, valid := range []bool{true, false} {
		f := newTLSFixture(t)
		const sport = 45446
		helloAt(t, f, sport, "www.example.com")
		if out, _ := runChain(t, f.rt, edgeSeg(t, f.box, sport, true, packet.TCPFin|packet.TCPAck)); out == nil {
			t.Fatal("the client's FIN was dropped")
		}
		subject := "www.example.com"
		if !valid {
			subject = "someone-else.example"
		}
		wire := certWire(t, f, subject)
		segs := [][]byte{
			flowSeg(t, sport, false, 0, 0, wire[:20]),
			flowSeg(t, sport, false, packet.TCPFin|packet.TCPAck, 40, wire[40:]),
			flowSeg(t, sport, false, 0, 20, wire[20:40]),
		}
		var out []byte
		for _, seg := range segs {
			out, _ = runChain(t, f.rt, seg)
		}
		if f.box.Checked != 1 || (out != nil) != valid {
			t.Fatalf("valid=%v: checked %d, last segment passed=%v", valid, f.box.Checked, out != nil)
		}
	}
}

// TestTLSVerifyCloseNeedsSequence: a FIN or RST counts only at the
// sequence number its direction expects next. An RST injected at
// another number leaves the connection and its SNI in place, so the
// MITM certificate that follows is still checked against the SNI.
func TestTLSVerifyCloseNeedsSequence(t *testing.T) {
	f := newTLSFixture(t)
	const sport = 45447
	helloAt(t, f, sport, "bank.example")
	for _, seg := range [][]byte{
		flowSeg(t, sport, true, packet.TCPRst, 9999, nil),
		flowSeg(t, sport, false, packet.TCPRst, 0, nil), // the server has sent nothing
		flowSeg(t, sport, true, packet.TCPFin|packet.TCPAck, 1, nil),
	} {
		runChain(t, f.rt, seg)
	}
	if len(f.box.flows) != 1 || f.box.asm.Flows() != 1 {
		t.Fatalf("an out-of-sequence close changed the state: %d tracked, %d streams", len(f.box.flows), f.box.asm.Flows())
	}
	if out, _ := runChain(t, f.rt, segAt(t, sport, 0, certWire(t, f, "phish.example"))); out != nil {
		t.Fatal("a certificate for another name passed after an injected RST")
	}
}

// TestTLSVerifyBlockedSurvivesClose: a FIN or RST, from either side and
// at any sequence number, does not clear a block. A later segment that
// would parse as application data at a record boundary is still
// dropped unparsed.
func TestTLSVerifyBlockedSurvivesClose(t *testing.T) {
	for _, flags := range []byte{packet.TCPRst, packet.TCPFin | packet.TCPAck} {
		f := newTLSFixture(t)
		const sport = 45448
		helloAt(t, f, sport, "bank.example")
		wire := certWire(t, f, "phish.example")
		if out, _ := runChain(t, f.rt, segAt(t, sport, 0, wire)); out != nil {
			t.Fatal("bad cert passed")
		}
		for _, toServer := range []bool{true, false} {
			runChain(t, f.rt, flowSeg(t, sport, toServer, flags, uint32(len(wire)), nil))
		}
		appData := []byte{23, 3, 3, 0, 1, 'x'}
		if out, _ := runChain(t, f.rt, segAt(t, sport, uint32(len(wire)), appData)); out != nil {
			t.Fatalf("flags %#x: a blocked connection passed a segment after its close", flags)
		}
		if f.box.asm.Flows() != 0 {
			t.Fatalf("a blocked connection holds %d streams", f.box.asm.Flows())
		}
	}
}

// TestTLSVerifyFlowCap: past maxTLSFlows live connections a new one is
// refused fail-closed, alerted and counted once however many segments
// it sends, while the tracked ones keep passing; a close makes room
// for the next connection.
func TestTLSVerifyFlowCap(t *testing.T) {
	f := newTLSFixture(t)
	hello := clientHello(t, "www.example.com")
	for i := 0; i < maxTLSFlows; i++ {
		if out, _ := runChain(t, f.rt, flowSeg(t, uint16(10000+i), true, 0, 0, hello)); out == nil {
			t.Fatalf("connection %d refused below the cap", i)
		}
	}
	const extra = uint16(10000 + maxTLSFlows)
	for i := 0; i < 3; i++ {
		if out, _ := runChain(t, f.rt, flowSeg(t, extra, true, 0, uint32(i*len(hello)), hello)); out != nil {
			t.Fatal("a connection past the cap was passed unverified")
		}
	}
	if f.box.FlowsRefused != 1 || len(f.box.flows) != maxTLSFlows {
		t.Fatalf("refused %d, tracking %d; want 1 and %d", f.box.FlowsRefused, len(f.box.flows), maxTLSFlows)
	}
	alerts := 0
	for _, a := range f.rt.Alerts("alice") {
		if a.Kind == "tls-flow-limit" {
			alerts++
		}
	}
	if alerts != 1 {
		t.Fatalf("%d tls-flow-limit alerts for one refused connection, want 1", alerts)
	}
	if out, _ := runChain(t, f.rt, flowSeg(t, 10000, true, 0, uint32(len(hello)), []byte{23, 3, 3, 0, 1, 'x'})); out == nil {
		t.Fatal("a tracked connection was dropped at the cap")
	}
	runChain(t, f.rt, edgeSeg(t, f.box, 10001, true, packet.TCPRst))
	if out, _ := runChain(t, f.rt, flowSeg(t, extra+1, true, 0, 0, hello)); out == nil {
		t.Fatal("a connection was refused after a close made room")
	}
}

// TestTLSVerifyIdleExpiry: connections abandoned without a FIN or RST,
// blocked ones included, leave the table once they have been idle
// tlsIdleSeconds, so a full table admits new connections again. A
// connection that still sends segments, even bare ACKs, stays.
func TestTLSVerifyIdleExpiry(t *testing.T) {
	f := newTLSFixture(t)
	now := int64(1000)
	f.box.NowSeconds = func() int64 { return now }
	hello := clientHello(t, "www.example.com")
	for i := 0; i < maxTLSFlows; i++ {
		runChain(t, f.rt, flowSeg(t, uint16(10000+i), true, 0, 0, hello))
	}
	runChain(t, f.rt, flowSeg(t, 10001, false, 0, 0, []byte{0xff, 3, 3, 0, 0})) // blocks 10001

	now += tlsIdleSeconds - 1
	runChain(t, f.rt, flowSeg(t, 10000, false, packet.TCPAck, 0, nil))
	if out, _ := runChain(t, f.rt, flowSeg(t, 30000, true, 0, 0, hello)); out != nil {
		t.Fatal("a connection was admitted before any tracked one idled out")
	}
	now++
	if out, _ := runChain(t, f.rt, flowSeg(t, 30001, true, 0, 0, hello)); out == nil {
		t.Fatal("a new connection was refused after the abandoned ones idled out")
	}
	if len(f.box.flows) != 2 || f.box.asm.Flows() != 2 {
		t.Fatalf("%d tracked, %d streams; want the active connection and the new one", len(f.box.flows), f.box.asm.Flows())
	}
	if out, _ := runChain(t, f.rt, flowSeg(t, 10000, true, 0, uint32(len(hello)), []byte{23, 3, 3, 0, 1, 'x'})); out == nil {
		t.Fatal("the active connection lost its state")
	}
}
