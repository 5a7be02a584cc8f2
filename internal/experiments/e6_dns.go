package experiments

import (
	"fmt"
	"strings"
	"time"

	"pvn/internal/dnssim"
	"pvn/internal/middlebox"
	"pvn/internal/middlebox/mbx"
	"pvn/internal/netsim"
	"pvn/internal/packet"
)

// E6Params parameterizes the DNS-validation experiment.
type E6Params struct {
	// Lookups per configuration.
	Lookups int
	// ForgeRate is the fraction of the local resolver's answers the
	// attacker forges.
	ForgeRate float64
	// OpenResolvers available for quorum checks.
	OpenResolvers int
	// QuorumSizes to sweep (the ablation).
	QuorumSizes []int
	// MaliciousOpenResolvers of the open set also forge.
	MaliciousOpenResolvers int
	Seed                   uint64
}

// DefaultE6 is the standard configuration.
var DefaultE6 = E6Params{
	Lookups: 200, ForgeRate: 0.3, OpenResolvers: 5,
	QuorumSizes: []int{1, 2, 3, 4}, MaliciousOpenResolvers: 1, Seed: 6,
}

// E6 reproduces the DNS-validation claim (§2.1, §4): a PVN DNSSEC module
// provides secure resolution even when the ISP resolver forges answers,
// and for unsigned names a quorum of open resolvers catches forgeries.
// The quorum-size sweep is the ablation: quorum 1 trusts a single
// resolver (which may itself be malicious), larger quorums tolerate it.
func E6(p E6Params) *Result {
	res := &Result{
		ID:     "E6",
		Title:  "DNS validation: DNSSEC + open-resolver quorum",
		Claim:  "signed names verify cryptographically; unsigned names are protected by an open-resolver quorum (paper S2.1, S4)",
		Header: []string{"configuration", "forged served (no PVN)", "forged served (PVN)", "forged blocked", "legit blocked", "probe queries"},
	}

	realAddr := packet.MustParseIPv4("93.184.216.34")
	evilAddr := packet.MustParseIPv4("198.18.0.66")
	dev := packet.MustParseIPv4("10.0.0.5")
	rng := netsim.NewRNG(p.Seed)

	run := func(signed bool, quorum int) (servedNoPVN, servedPVN, blocked, falseBlocked int, probes int64) {
		// Zones: one signed, one legacy.
		zone, _ := dnssim.NewZone("example.com", signed, p.Seed)
		name := "www.example.com"
		zone.AddA(name, realAddr, 300)
		auth := dnssim.NewAuthority(zone)
		anchors := dnssim.TrustAnchors{}
		if signed {
			anchors["example.com"] = zone.PublicKey()
		}

		// The ISP resolver the device is stuck with: forges ForgeRate
		// of answers.
		local := dnssim.NewResolver("isp-resolver", auth, p.Seed+1)

		// Open resolvers for quorum; some may be malicious too.
		var open []*dnssim.Resolver
		for i := 0; i < p.OpenResolvers; i++ {
			r := dnssim.NewResolver(fmt.Sprintf("open%d", i), auth, p.Seed+10+uint64(i))
			if i < p.MaliciousOpenResolvers {
				r.Malicious = true
				r.Forge = map[string]packet.IPv4Address{name: evilAddr}
			}
			open = append(open, r)
		}
		box := mbx.NewDNSValidate(anchors, open, quorum)

		rt := middlebox.NewRuntime(nil)
		rt.Register(&middlebox.Spec{Type: "dns-validate", New: func(map[string]string) (middlebox.Box, error) { return box, nil }})
		inst, _ := rt.Instantiate("alice", "dns-validate", nil)
		rt.BuildChain("alice", "d", []string{inst.ID}, nil)
		rt.Now = func() time.Duration { return time.Second } // past boot

		for i := 0; i < p.Lookups; i++ {
			forged := rng.Bool(p.ForgeRate)
			var resp *packet.DNS
			if forged {
				// The ISP resolver returns the attacker address with
				// no signature (it cannot forge one).
				resp = &packet.DNS{ID: uint16(i), QR: true,
					Questions: []packet.DNSQuestion{{Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN}},
					Answers:   []packet.DNSRecord{{Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: 60, Data: evilAddr[:]}}}
			} else {
				resp = local.Query(name, packet.DNSTypeA)
			}
			// Without a PVN the device just uses the answer.
			if forged {
				servedNoPVN++
			}
			pkt := dnsWirePacket(resp, dev)
			out, _, err := rt.ExecuteChain("alice/d", pkt)
			dropped := err != nil || out == nil
			switch {
			case forged && dropped:
				blocked++
			case forged && !dropped:
				servedPVN++
			case !forged && dropped:
				falseBlocked++
			}
		}
		for _, r := range open {
			probes += r.Queries()
		}
		return
	}

	// Signed zone: quorum irrelevant, signatures decide.
	sNo, sPVN, sBlocked, sFalse, sProbes := run(true, 3)
	res.AddRow("signed zone (DNSSEC)",
		fmt.Sprintf("%d/%d", sNo, p.Lookups), fmt.Sprintf("%d", sPVN),
		fmt.Sprint(sBlocked), fmt.Sprint(sFalse), fmt.Sprint(sProbes))

	// Unsigned zone: sweep quorum sizes.
	var rows []string
	for _, q := range p.QuorumSizes {
		uNo, uPVN, uBlocked, uFalse, uProbes := run(false, q)
		label := fmt.Sprintf("unsigned zone, quorum=%d", q)
		res.AddRow(label,
			fmt.Sprintf("%d/%d", uNo, p.Lookups), fmt.Sprint(uPVN),
			fmt.Sprint(uBlocked), fmt.Sprint(uFalse), fmt.Sprint(uProbes))
		rows = append(rows, fmt.Sprintf("q=%d blocked=%d", q, uBlocked))
	}

	if sPVN == 0 && sFalse == 0 {
		res.Findingf("DNSSEC path: every forged answer blocked, no false positives")
	} else {
		res.Findingf("DNSSEC path imperfect: %d forged served, %d legit blocked", sPVN, sFalse)
	}
	res.Findingf("quorum ablation (%d/%d open resolvers malicious): %s",
		p.MaliciousOpenResolvers, p.OpenResolvers, strings.Join(rows, ", "))
	return res
}

func dnsWirePacket(msg *packet.DNS, dst packet.IPv4Address) []byte {
	body, err := packet.SerializeToBytes(msg)
	if err != nil {
		return nil
	}
	src := packet.MustParseIPv4("10.99.0.53")
	ip := &packet.IPv4{Src: src, Dst: dst, Protocol: packet.IPProtoUDP}
	udp := &packet.UDP{SrcPort: 53, DstPort: 3333}
	udp.SetNetworkLayerForChecksum(ip)
	out, err := packet.SerializeToBytes(ip, udp, packet.Payload(body))
	if err != nil {
		return nil
	}
	return out
}
