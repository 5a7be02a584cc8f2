package mbx

import (
	"errors"
	"fmt"

	"pvn/internal/dnssim"
	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// DNSValidate checks DNS responses crossing the PVN (§4 "DNS
// Validation"). Signed zones are verified against trust anchors; for
// unsigned names it cross-checks the answer against a set of open
// resolvers and requires a quorum. Responses that fail either check are
// dropped and alerted, so the device never acts on a forged mapping.
type DNSValidate struct {
	Anchors dnssim.TrustAnchors
	// OpenResolvers is the cross-check set for unsigned names. Empty
	// disables the quorum check (unsigned answers then pass unchecked).
	OpenResolvers []*dnssim.Resolver
	// Quorum is the minimum agreeing open resolvers. Zero means a
	// majority of the configured resolvers.
	Quorum int

	// Validated, Forged and Unverifiable count outcomes.
	Validated, Forged, Unverifiable int64
}

// NewDNSValidate builds the validator.
func NewDNSValidate(anchors dnssim.TrustAnchors, open []*dnssim.Resolver, quorum int) *DNSValidate {
	if quorum == 0 {
		quorum = len(open)/2 + 1
	}
	return &DNSValidate{Anchors: anchors, OpenResolvers: open, Quorum: quorum}
}

// Name implements middlebox.Box.
func (d *DNSValidate) Name() string { return "dns-validate" }

// Process implements middlebox.Box.
func (d *DNSValidate) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	p := ctx.Packet(data)
	msg := p.DNS()
	if msg == nil || !msg.QR || msg.Rcode != packet.DNSRcodeNoError || len(msg.Questions) == 0 {
		return data, middlebox.VerdictPass, nil
	}
	q := msg.Questions[0]

	err := d.Anchors.Validate(msg)
	switch {
	case err == nil:
		d.Validated++
		return data, middlebox.VerdictPass, nil

	case errors.Is(err, dnssim.ErrNoAnchor), errors.Is(err, dnssim.ErrNoSignature):
		// Not (or not verifiably) signed: fall back to quorum.
		return d.quorumCheck(ctx, data, msg, q)

	default:
		// Signed zone, bad signature: forged.
		d.Forged++
		ctx.Alert("dns-forged", fmt.Sprintf("%s: %v", q.Name, err))
		return nil, middlebox.VerdictDrop, nil
	}
}

func (d *DNSValidate) quorumCheck(ctx *middlebox.Context, data []byte, msg *packet.DNS, q packet.DNSQuestion) ([]byte, middlebox.Verdict, error) {
	if len(d.OpenResolvers) == 0 || q.Type != packet.DNSTypeA {
		d.Unverifiable++
		return data, middlebox.VerdictPass, nil
	}
	var answered packet.IPv4Address
	found := false
	for _, a := range msg.Answers {
		if a.Type == packet.DNSTypeA {
			answered = a.A()
			found = true
			break
		}
	}
	if !found {
		d.Unverifiable++
		return data, middlebox.VerdictPass, nil
	}
	res, err := dnssim.QuorumResolve(q.Name, d.OpenResolvers, d.Quorum)
	if err != nil {
		// No quorum among open resolvers: cannot prove the answer
		// wrong; pass but record that it was unverifiable.
		d.Unverifiable++
		ctx.Alert("dns-unverifiable", fmt.Sprintf("%s: %v", q.Name, err))
		return data, middlebox.VerdictPass, nil
	}
	if res.Addr != answered {
		d.Forged++
		ctx.Alert("dns-forged", fmt.Sprintf("%s: got %s, quorum says %s (%d/%d)",
			q.Name, answered, res.Addr, res.Votes, res.Total))
		return nil, middlebox.VerdictDrop, nil
	}
	d.Validated++
	return data, middlebox.VerdictPass, nil
}
