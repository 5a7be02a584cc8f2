// Package mbx contains the built-in PVN middleboxes: the concrete
// network functions the paper proposes deploying in personal virtual
// networks (§4) — TLS certificate verification, DNS validation, PII
// detection and blocking, traffic classification, video transcoding,
// tracker and malware blocking, web compression/prefetching/rendering,
// replica selection, and a sandboxed user-script filter.
//
// Every box implements middlebox.Box over raw IPv4 packets and keeps
// per-flow state internally, so one instance serves one user's whole
// virtual network.
package mbx

import (
	"encoding/binary"
	"fmt"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
	"pvn/internal/pki"
	"pvn/internal/reasm"
)

// TLSVerify enforces certificate validity on TLS connections (§4
// "HTTPS/TLS Enhancements"): it reassembles each flow's TCP stream,
// remembers the SNI from the ClientHello and verifies Certificate
// handshakes against a trust store — including certificate chains that
// span multiple TCP segments, as real chains do. Connections presenting
// invalid, expired, self-signed, revoked or misissued (MITM) chains are
// blocked and alerted.
//
// An open connection is forgotten at its RST or its second FIN, each
// counted only at the sequence number its direction's stream expects
// next. A blocked connection stays blocked until it idles out. A full
// table (maxTLSFlows) drops its idle connections before it refuses one.
type TLSVerify struct {
	Store *pki.TrustStore
	// NowSeconds supplies validity-check time on the simulation
	// timeline.
	NowSeconds func() int64
	// WarnOnly downgrades blocking to alert-only (the paper's "at least
	// present warnings" mode).
	WarnOnly bool

	asm *reasm.Assembler
	// flows holds each tracked connection under its canonical flow, and
	// refused those refused at the cap (emptied whole when full).
	flows   map[packet.Flow]*tlsFlow
	refused map[packet.Flow]bool
	// sweptAt is the NowSeconds of the last idle sweep.
	sweptAt int64

	// Checked counts verified chains, Blocked dropped segments, and
	// FlowsRefused the connections refused at the maxTLSFlows cap.
	Checked, Blocked, FlowsRefused int64
}

const (
	// maxTLSFlows caps the connections one verifier tracks; one past it
	// cannot be verified, so it is blocked fail-closed.
	maxTLSFlows = 4096
	// tlsIdleSeconds without a segment make a connection idle.
	tlsIdleSeconds = 300
)

// tlsFlow is one tracked connection.
type tlsFlow struct {
	sni string
	// blocked marks a connection that already failed: its later
	// segments are dropped unparsed.
	blocked bool
	// fin is the direction of the first counted FIN, if any.
	fin packet.Flow
	// seen is the NowSeconds of the connection's last segment.
	seen int64
}

// NewTLSVerify builds the verifier.
func NewTLSVerify(store *pki.TrustStore, nowSeconds func() int64) *TLSVerify {
	if nowSeconds == nil {
		nowSeconds = func() int64 { return 0 }
	}
	return &TLSVerify{
		Store:      store,
		NowSeconds: nowSeconds,
		asm:        reasm.NewAssembler(),
		flows:      make(map[packet.Flow]*tlsFlow),
		refused:    make(map[packet.Flow]bool),
	}
}

// Name implements middlebox.Box.
func (t *TLSVerify) Name() string { return "tls-verify" }

// Process implements middlebox.Box.
func (t *TLSVerify) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	tcp := p.TCP()
	flow, ok := packet.FlowOf(p)
	if tcp == nil || !ok || (tcp.SrcPort != 443 && tcp.DstPort != 443) {
		return data, middlebox.VerdictPass, nil
	}
	if tcp.Flags&(packet.TCPFin|packet.TCPRst) != 0 {
		defer t.end(flow, tcp) // after the segment's own verdict
	}
	now := t.NowSeconds()
	st := t.flows[flow.Canonical()]
	if st != nil {
		st.seen = now
	}
	if len(tcp.LayerPayload()) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	if st == nil {
		st = t.admit(ctx, flow.Canonical(), now)
	}
	if st == nil || st.blocked {
		return t.block(st, flow, data)
	}

	stream, err := t.asm.Feed(p)
	if err != nil {
		// Reassembly resource limit: fail closed, the flow cannot be
		// verified.
		ctx.Alert("tls-reassembly", err.Error())
		return t.block(st, flow, data)
	}

	// Parse every COMPLETE record at the head of the stream.
	for {
		buf := stream.Bytes()
		if len(buf) < 5 {
			break
		}
		typ := buf[0]
		if typ < packet.TLSTypeChangeCipherSpec || typ > packet.TLSTypeApplicationData {
			ctx.Alert("tls-malformed", fmt.Sprintf("bad record type %d", typ))
			return t.block(st, flow, data)
		}
		rlen := int(binary.BigEndian.Uint16(buf[3:5]))
		if len(buf) < 5+rlen {
			break // record incomplete; wait for more segments
		}
		rec := packet.TLSRecord{Type: typ, Version: binary.BigEndian.Uint16(buf[1:3]), Payload: buf[5 : 5+rlen]}
		ok := t.processRecord(ctx, st, rec)
		stream.Consume(5 + rlen)
		if !ok {
			return t.block(st, flow, data)
		}
	}
	return data, middlebox.VerdictPass, nil
}

// admit starts tracking a new connection. A full table first drops its
// idle connections, at most once per NowSeconds value: nothing more
// idles out until the clock moves. If it stays full, the connection is
// refused (nil) for good.
func (t *TLSVerify) admit(ctx *middlebox.Context, canon packet.Flow, now int64) *tlsFlow {
	if t.refused[canon] {
		return nil
	}
	if len(t.flows) >= maxTLSFlows && now != t.sweptAt {
		t.sweptAt = now
		for f, st := range t.flows {
			if now-st.seen >= tlsIdleSeconds {
				t.forget(f)
			}
		}
	}
	if len(t.flows) >= maxTLSFlows {
		if len(t.refused) >= maxTLSFlows {
			clear(t.refused)
		}
		t.refused[canon] = true
		t.FlowsRefused++
		ctx.Alert("tls-flow-limit", fmt.Sprintf("%d connections tracked", maxTLSFlows))
		return nil
	}
	st := &tlsFlow{seen: now}
	t.flows[canon] = st
	return st
}

// end counts a FIN or RST of an open connection at the sequence number
// its direction's stream expects next; one out of order or injected at
// a guessed number ends nothing. A blocked connection has no streams,
// so it stays until it idles out.
func (t *TLSVerify) end(flow packet.Flow, tcp *packet.TCP) {
	st := t.flows[flow.Canonical()]
	if next, ok := t.asm.Next(flow); st == nil || !ok || next != tcp.Seq+uint32(len(tcp.LayerPayload())) {
		return
	}
	if tcp.Flags&packet.TCPRst != 0 || st.fin != (packet.Flow{}) && st.fin != flow {
		t.forget(flow.Canonical())
	}
	st.fin = flow
}

// forget drops a connection's entry and both its streams.
func (t *TLSVerify) forget(canon packet.Flow) {
	delete(t.flows, canon)
	t.asm.Release(canon)
	t.asm.Release(canon.Reverse())
}

// processRecord inspects one complete TLS record; false means block.
func (t *TLSVerify) processRecord(ctx *middlebox.Context, st *tlsFlow, rec packet.TLSRecord) bool {
	if rec.Type != packet.TLSTypeHandshake {
		return true
	}
	hss, err := rec.Handshakes()
	if err != nil {
		ctx.Alert("tls-malformed", err.Error())
		return false
	}
	for _, hs := range hss {
		switch hs.Type {
		case packet.TLSHandshakeClientHello:
			ch, err := packet.ParseClientHello(hs.Body)
			if err == nil && ch.ServerName != "" {
				st.sni = ch.ServerName
			}
		case packet.TLSHandshakeCertificate:
			t.Checked++
			if !t.certificateOK(ctx, st, hs.Body) {
				return false
			}
		}
	}
	return true
}

// block drops the segment unless WarnOnly, and marks a tracked
// connection blocked; its streams are never parsed again, so they go.
func (t *TLSVerify) block(st *tlsFlow, flow packet.Flow, data []byte) ([]byte, middlebox.Verdict, error) {
	if t.WarnOnly {
		return data, middlebox.VerdictPass, nil
	}
	if st != nil {
		st.blocked = true
		t.asm.Release(flow)
		t.asm.Release(flow.Reverse())
	}
	t.Blocked++
	return nil, middlebox.VerdictDrop, nil
}

func (t *TLSVerify) certificateOK(ctx *middlebox.Context, st *tlsFlow, body []byte) bool {
	blobs, err := packet.ParseCertificateChain(body)
	if err != nil {
		ctx.Alert("tls-malformed", err.Error())
		return false
	}
	chain, err := pki.DecodeChain(blobs)
	if err != nil {
		ctx.Alert("tls-malformed", err.Error())
		return false
	}
	// The Certificate flies server->client; the SNI was recorded from
	// the client->server direction of the same connection.
	if err := t.Store.Verify(chain, st.sni, t.NowSeconds()); err != nil {
		ctx.Alert("tls-invalid-cert", fmt.Sprintf("%s: %v", st.sni, err))
		return false
	}
	return true
}
