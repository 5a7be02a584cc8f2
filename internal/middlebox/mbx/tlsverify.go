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
type TLSVerify struct {
	Store *pki.TrustStore
	// NowSeconds supplies validity-check time on the simulation
	// timeline.
	NowSeconds func() int64
	// WarnOnly downgrades blocking to alert-only (the paper's "at least
	// present warnings" mode).
	WarnOnly bool

	asm *reasm.Assembler
	sni map[packet.Flow]string
	// blockedFlows remembers connections that already failed; all their
	// later segments are dropped too.
	blockedFlows map[packet.Flow]bool

	// Checked and Blocked count verified chains and blocked flows.
	Checked, Blocked int64
}

// NewTLSVerify builds the verifier.
func NewTLSVerify(store *pki.TrustStore, nowSeconds func() int64) *TLSVerify {
	if nowSeconds == nil {
		nowSeconds = func() int64 { return 0 }
	}
	return &TLSVerify{
		Store:        store,
		NowSeconds:   nowSeconds,
		asm:          reasm.NewAssembler(),
		sni:          make(map[packet.Flow]string),
		blockedFlows: make(map[packet.Flow]bool),
	}
}

// Name implements middlebox.Box.
func (t *TLSVerify) Name() string { return "tls-verify" }

// Process implements middlebox.Box.
func (t *TLSVerify) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	tcp := p.TCP()
	if tcp == nil || (tcp.SrcPort != 443 && tcp.DstPort != 443) || len(tcp.LayerPayload()) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	flow, _ := packet.FlowOf(p)
	if t.blockedFlows[flow.Canonical()] {
		return t.block(flow, data)
	}

	stream, err := t.asm.Feed(p)
	if err != nil {
		// Reassembly resource limit: fail closed, the flow cannot be
		// verified.
		ctx.Alert("tls-reassembly", err.Error())
		return t.block(flow, data)
	}
	if stream == nil {
		return data, middlebox.VerdictPass, nil
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
			return t.block(flow, data)
		}
		rlen := int(binary.BigEndian.Uint16(buf[3:5]))
		if len(buf) < 5+rlen {
			break // record incomplete; wait for more segments
		}
		rec := packet.TLSRecord{Type: typ, Version: binary.BigEndian.Uint16(buf[1:3]), Payload: buf[5 : 5+rlen]}
		ok := t.processRecord(ctx, flow, rec)
		stream.Consume(5 + rlen)
		if !ok {
			return t.block(flow, data)
		}
	}
	return data, middlebox.VerdictPass, nil
}

// processRecord inspects one complete TLS record; false means block.
func (t *TLSVerify) processRecord(ctx *middlebox.Context, flow packet.Flow, rec packet.TLSRecord) bool {
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
				t.sni[flow.Canonical()] = ch.ServerName
			}
		case packet.TLSHandshakeCertificate:
			t.Checked++
			if !t.certificateOK(ctx, flow, hs.Body) {
				return false
			}
		}
	}
	return true
}

func (t *TLSVerify) block(flow packet.Flow, data []byte) ([]byte, middlebox.Verdict, error) {
	if t.WarnOnly {
		return data, middlebox.VerdictPass, nil
	}
	t.blockedFlows[flow.Canonical()] = true
	t.Blocked++
	return nil, middlebox.VerdictDrop, nil
}

func (t *TLSVerify) certificateOK(ctx *middlebox.Context, flow packet.Flow, body []byte) bool {
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
	// the client->server direction, so look up the canonical flow.
	wantName := t.sni[flow.Canonical()]
	if err := t.Store.Verify(chain, wantName, t.NowSeconds()); err != nil {
		ctx.Alert("tls-invalid-cert", fmt.Sprintf("%s: %v", wantName, err))
		return false
	}
	return true
}
