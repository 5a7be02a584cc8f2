package dnssim

import (
	"errors"
	"testing"

	"pvn/internal/packet"
)

var (
	realAddr = packet.MustParseIPv4("93.184.216.34")
	evilAddr = packet.MustParseIPv4("198.18.0.66")
)

// fixture: a signed zone example.com and an unsigned zone legacy.net.
func fixture(t *testing.T) (*Zone, *Zone, *Authority, TrustAnchors) {
	t.Helper()
	signed, err := NewZone("example.com", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	signed.AddA("www.example.com", realAddr, 300)

	unsigned, err := NewZone("legacy.net", false, 2)
	if err != nil {
		t.Fatal(err)
	}
	unsigned.AddA("old.legacy.net", realAddr, 300)

	auth := NewAuthority(signed, unsigned)
	anchors := TrustAnchors{"example.com": signed.PublicKey()}
	return signed, unsigned, auth, anchors
}

func TestAuthorityResolvesSignedZone(t *testing.T) {
	_, _, auth, anchors := fixture(t)
	r := NewResolver("r1", auth, 10)
	resp := r.Query("www.example.com", packet.DNSTypeA)
	if resp.Rcode != packet.DNSRcodeNoError || !resp.AA || !resp.AD {
		t.Fatalf("response %+v", resp)
	}
	var gotA bool
	var gotSig bool
	for _, a := range resp.Answers {
		if a.Type == packet.DNSTypeA && a.A() == realAddr {
			gotA = true
		}
		if a.Type == packet.DNSTypeRRSIG {
			gotSig = true
		}
	}
	if !gotA || !gotSig {
		t.Fatalf("answers missing A or RRSIG: %+v", resp.Answers)
	}
	if err := anchors.Validate(resp); err != nil {
		t.Fatalf("valid signed answer failed validation: %v", err)
	}
}

func TestUnsignedZoneHasNoSignature(t *testing.T) {
	_, _, auth, anchors := fixture(t)
	r := NewResolver("r1", auth, 10)
	resp := r.Query("old.legacy.net", packet.DNSTypeA)
	if resp.Rcode != packet.DNSRcodeNoError {
		t.Fatalf("rcode %d", resp.Rcode)
	}
	if resp.AD {
		t.Fatal("unsigned zone set AD")
	}
	if err := anchors.Validate(resp); !errors.Is(err, ErrNoAnchor) {
		t.Fatalf("err=%v, want ErrNoAnchor (zone not anchored)", err)
	}
}

func TestNXDomain(t *testing.T) {
	_, _, auth, _ := fixture(t)
	r := NewResolver("r1", auth, 10)
	resp := r.Query("missing.example.com", packet.DNSTypeA)
	if resp.Rcode != packet.DNSRcodeNXDomain {
		t.Fatalf("rcode %d, want NXDOMAIN", resp.Rcode)
	}
	resp = r.Query("other.tld", packet.DNSTypeA)
	if resp.Rcode != packet.DNSRcodeNXDomain {
		t.Fatalf("out-of-zone rcode %d, want NXDOMAIN", resp.Rcode)
	}
}

func TestMaliciousResolverForgesUnsignedAnswer(t *testing.T) {
	_, _, auth, anchors := fixture(t)
	r := NewResolver("evil", auth, 10)
	r.Malicious = true
	r.Forge["www.example.com"] = evilAddr

	resp := r.Query("www.example.com", packet.DNSTypeA)
	if resp.Answers[0].A() != evilAddr {
		t.Fatal("malicious resolver did not forge")
	}
	// Validation must catch it: the forged answer has no RRSIG.
	if err := anchors.Validate(resp); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("err=%v, want ErrNoSignature", err)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	_, _, auth, anchors := fixture(t)
	r := NewResolver("r1", auth, 10)
	resp := r.Query("www.example.com", packet.DNSTypeA)
	// Attacker swaps the A record but keeps the old signature.
	for i, a := range resp.Answers {
		if a.Type == packet.DNSTypeA {
			resp.Answers[i].Data = evilAddr[:]
		}
	}
	if err := anchors.Validate(resp); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err=%v, want ErrBadSignature", err)
	}
}

func TestWrongSignerRejected(t *testing.T) {
	// A second signed zone cannot vouch for example.com names.
	signed, _, _, anchors := fixture(t)
	other, err := NewZone("example.com", true, 99) // same apex, different key
	if err != nil {
		t.Fatal(err)
	}
	other.AddA("www.example.com", evilAddr, 300)
	evilAuth := NewAuthority(other)
	r := NewResolver("r1", evilAuth, 10)
	resp := r.Query("www.example.com", packet.DNSTypeA)
	if err := anchors.Validate(resp); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err=%v, want ErrBadSignature (wrong zone key)", err)
	}
	_ = signed
}

func TestQuorumResolveHonestMajority(t *testing.T) {
	_, _, auth, _ := fixture(t)
	var resolvers []*Resolver
	for i := 0; i < 5; i++ {
		resolvers = append(resolvers, NewResolver("r", auth, uint64(i)))
	}
	// One of five is malicious.
	resolvers[2].Malicious = true
	resolvers[2].Forge["old.legacy.net"] = evilAddr

	res, err := QuorumResolve("old.legacy.net", resolvers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addr != realAddr {
		t.Fatalf("quorum answer %v, want %v", res.Addr, realAddr)
	}
	if res.Votes != 4 || res.Total != 5 {
		t.Fatalf("votes %d/%d", res.Votes, res.Total)
	}
}

func TestQuorumResolveFailsWithoutMajority(t *testing.T) {
	_, _, auth, _ := fixture(t)
	var resolvers []*Resolver
	for i := 0; i < 4; i++ {
		r := NewResolver("r", auth, uint64(i))
		if i < 2 {
			r.Malicious = true
			r.Forge["old.legacy.net"] = evilAddr
		}
		resolvers = append(resolvers, r)
	}
	if _, err := QuorumResolve("old.legacy.net", resolvers, 3); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err=%v, want ErrNoQuorum", err)
	}
}

func TestQuorumSkipsFailingResolvers(t *testing.T) {
	_, _, auth, _ := fixture(t)
	var resolvers []*Resolver
	for i := 0; i < 4; i++ {
		r := NewResolver("r", auth, uint64(i))
		resolvers = append(resolvers, r)
	}
	resolvers[0].FailRate = 1.0
	res, err := QuorumResolve("old.legacy.net", resolvers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3 {
		t.Fatalf("total %d, want 3 (one resolver always SERVFAILs)", res.Total)
	}
}

func TestResolverQueryCount(t *testing.T) {
	_, _, auth, _ := fixture(t)
	r := NewResolver("r1", auth, 1)
	r.Query("www.example.com", packet.DNSTypeA)
	r.Query("www.example.com", packet.DNSTypeA)
	if r.Queries() != 2 {
		t.Fatalf("query count %d", r.Queries())
	}
}

func TestValidateWireRoundTrip(t *testing.T) {
	// Signatures must survive DNS wire encoding/decoding.
	_, _, auth, anchors := fixture(t)
	r := NewResolver("r1", auth, 1)
	resp := r.Query("www.example.com", packet.DNSTypeA)
	wire, err := packet.SerializeToBytes(resp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded packet.DNS
	if err := decoded.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if err := anchors.Validate(&decoded); err != nil {
		t.Fatalf("validation after wire round trip: %v", err)
	}
}

func TestAnchorForMostSpecific(t *testing.T) {
	z1, _ := NewZone("example.com", true, 1)
	z2, _ := NewZone("sub.example.com", true, 2)
	ta := TrustAnchors{"example.com": z1.PublicKey(), "sub.example.com": z2.PublicKey()}
	zone, key, ok := ta.anchorFor("www.sub.example.com")
	if !ok || zone != "sub.example.com" {
		t.Fatalf("anchor %q", zone)
	}
	if string(key) != string(z2.PublicKey()) {
		t.Fatal("wrong key selected")
	}
}

func TestParseRRSIGMalformed(t *testing.T) {
	if _, _, err := parseRRSIG([]byte("no-separator")); err == nil {
		t.Fatal("RRSIG without separator accepted")
	}
	if _, _, err := parseRRSIG(append([]byte("zone\x00"), make([]byte, 10)...)); err == nil {
		t.Fatal("short signature accepted")
	}
}
