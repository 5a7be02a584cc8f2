// Package dnssim implements the DNS substrate for the PVN security
// experiments (§2.1, §4 "DNS Validation"): authoritative zones whose
// record sets can be signed with Ed25519 zone keys (a DNSSEC stand-in
// with the same verification property), resolvers that can be honest or
// actively forge answers, signature validation against trust anchors,
// and quorum resolution across multiple open resolvers for names that
// are not signed.
package dnssim

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"pvn/internal/netsim"
	"pvn/internal/packet"
	"pvn/internal/pki"
)

// Validation errors.
var (
	ErrNoSignature  = errors.New("dnssim: response carries no RRSIG")
	ErrBadSignature = errors.New("dnssim: RRSIG verification failed")
	ErrNoAnchor     = errors.New("dnssim: no trust anchor for zone")
	ErrNXDomain     = errors.New("dnssim: no such name")
	ErrNoQuorum     = errors.New("dnssim: resolvers did not reach quorum")
)

// Zone is one authoritative zone.
type Zone struct {
	// Name is the zone apex, e.g. "example.com".
	Name string
	// Signed controls whether answers carry RRSIGs.
	Signed bool

	keys    pki.KeyPair
	records map[string][]packet.DNSRecord // by fully qualified name
}

// NewZone creates a zone. If signed, a zone key pair is derived
// deterministically from seed.
func NewZone(name string, signed bool, seed uint64) (*Zone, error) {
	z := &Zone{Name: strings.ToLower(name), Signed: signed, records: make(map[string][]packet.DNSRecord)}
	if signed {
		kp, err := pki.GenerateKey(pki.NewDeterministicRand(seed))
		if err != nil {
			return nil, err
		}
		z.keys = kp
	}
	return z, nil
}

// PublicKey returns the zone signing key for trust-anchor distribution,
// or nil for unsigned zones.
func (z *Zone) PublicKey() ed25519.PublicKey { return z.keys.Public }

// AddA publishes an A record.
func (z *Zone) AddA(name string, addr packet.IPv4Address, ttl uint32) {
	name = strings.ToLower(name)
	z.records[name] = append(z.records[name], packet.DNSRecord{
		Name: name, Type: packet.DNSTypeA, Class: packet.DNSClassIN, TTL: ttl, Data: addr[:],
	})
}

// AddTXT publishes a TXT record.
func (z *Zone) AddTXT(name, text string, ttl uint32) {
	name = strings.ToLower(name)
	z.records[name] = append(z.records[name], packet.DNSRecord{
		Name: name, Type: packet.DNSTypeTXT, Class: packet.DNSClassIN, TTL: ttl, Data: []byte(text),
	})
}

// Contains reports whether the name belongs to this zone.
func (z *Zone) Contains(name string) bool {
	name = strings.ToLower(name)
	return name == z.Name || strings.HasSuffix(name, "."+z.Name)
}

// rrsigData packs the signer name and signature into RRSIG RDATA.
func rrsigData(signer string, sig []byte) []byte {
	out := append([]byte(signer), 0)
	return append(out, sig...)
}

// parseRRSIG splits RRSIG RDATA back into signer and signature.
func parseRRSIG(data []byte) (signer string, sig []byte, err error) {
	i := -1
	for j, b := range data {
		if b == 0 {
			i = j
			break
		}
	}
	if i < 0 || i+1+ed25519.SignatureSize != len(data) {
		return "", nil, fmt.Errorf("dnssim: malformed RRSIG RDATA (%d bytes)", len(data))
	}
	return string(data[:i]), data[i+1:], nil
}

// signableBytes canonicalizes a record set (one name+type) for signing:
// sorted RDATAs prefixed with name and type, TTL excluded so resolver
// TTL-aging does not break signatures (as in real DNSSEC's original TTL
// handling, simplified).
func signableBytes(name string, rtype uint16, rdatas [][]byte) []byte {
	sorted := make([]string, len(rdatas))
	for i, d := range rdatas {
		sorted[i] = string(d)
	}
	sort.Strings(sorted)
	out := []byte(strings.ToLower(name))
	out = append(out, 0)
	out = binary.BigEndian.AppendUint16(out, rtype)
	for _, d := range sorted {
		out = binary.BigEndian.AppendUint16(out, uint16(len(d)))
		out = append(out, d...)
	}
	return out
}

// Resolve answers a question from zone data. Signed zones attach an RRSIG
// covering the answer record set.
func (z *Zone) Resolve(q packet.DNSQuestion) ([]packet.DNSRecord, error) {
	name := strings.ToLower(q.Name)
	rrs := z.records[name]
	var answers []packet.DNSRecord
	for _, r := range rrs {
		if r.Type == q.Type && r.Class == q.Class {
			answers = append(answers, r)
		}
	}
	if len(answers) == 0 {
		return nil, fmt.Errorf("%w: %s type %d", ErrNXDomain, q.Name, q.Type)
	}
	if z.Signed {
		rdatas := make([][]byte, len(answers))
		for i, a := range answers {
			rdatas[i] = a.Data
		}
		sig := ed25519.Sign(z.keys.Private, signableBytes(name, q.Type, rdatas))
		answers = append(answers, packet.DNSRecord{
			Name: name, Type: packet.DNSTypeRRSIG, Class: packet.DNSClassIN,
			TTL: answers[0].TTL, Data: rrsigData(z.Name, sig),
		})
	}
	return answers, nil
}

// Authority serves a set of zones.
type Authority struct {
	zones []*Zone
}

// NewAuthority builds an authority over the given zones.
func NewAuthority(zones ...*Zone) *Authority { return &Authority{zones: zones} }

// Resolve answers a query message with a response message.
func (a *Authority) Resolve(query *packet.DNS) *packet.DNS {
	resp := &packet.DNS{ID: query.ID, QR: true, RA: true, Questions: query.Questions}
	if len(query.Questions) == 0 {
		resp.Rcode = packet.DNSRcodeFormErr
		return resp
	}
	q := query.Questions[0]
	for _, z := range a.zones {
		if !z.Contains(q.Name) {
			continue
		}
		answers, err := z.Resolve(q)
		if err != nil {
			resp.Rcode = packet.DNSRcodeNXDomain
			return resp
		}
		resp.AA = true
		resp.Answers = answers
		if z.Signed {
			resp.AD = true
		}
		return resp
	}
	resp.Rcode = packet.DNSRcodeNXDomain
	return resp
}

// Resolver models one recursive resolver a device might use. Malicious
// resolvers forge configured names (and strip signatures, as a real
// attacker without zone keys must).
type Resolver struct {
	// Name identifies the resolver in experiment output.
	Name      string
	Upstream  *Authority
	Malicious bool
	// Forge maps lowercase names to the attacker-controlled address
	// returned instead of the truth.
	Forge map[string]packet.IPv4Address
	// FailRate drops queries with this probability (SERVFAIL).
	FailRate float64

	rng *netsim.RNG

	// Queries counts lookups served, for probe-cost accounting.
	Queries int64
}

// NewResolver builds a resolver over the authority. seed drives failure
// draws.
func NewResolver(name string, upstream *Authority, seed uint64) *Resolver {
	return &Resolver{Name: name, Upstream: upstream, Forge: make(map[string]packet.IPv4Address), rng: netsim.NewRNG(seed)}
}

// Query resolves one name/type.
func (r *Resolver) Query(name string, rtype uint16) *packet.DNS {
	r.Queries++
	q := &packet.DNS{ID: uint16(r.rng.Uint64()), RD: true,
		Questions: []packet.DNSQuestion{{Name: name, Type: rtype, Class: packet.DNSClassIN}}}
	if r.FailRate > 0 && r.rng.Bool(r.FailRate) {
		return &packet.DNS{ID: q.ID, QR: true, Rcode: packet.DNSRcodeServFail, Questions: q.Questions}
	}
	if r.Malicious {
		if addr, ok := r.Forge[strings.ToLower(name)]; ok && rtype == packet.DNSTypeA {
			// The attacker mints an unsigned answer: it cannot forge
			// the zone's RRSIG without the zone key.
			return &packet.DNS{
				ID: q.ID, QR: true, RA: true, Questions: q.Questions,
				Answers: []packet.DNSRecord{{
					Name: strings.ToLower(name), Type: packet.DNSTypeA,
					Class: packet.DNSClassIN, TTL: 60, Data: addr[:],
				}},
			}
		}
	}
	return r.Upstream.Resolve(q)
}

// TrustAnchors maps zone apex names to their public signing keys, the
// validator's equivalent of the DNSSEC root/DS chain.
type TrustAnchors map[string]ed25519.PublicKey

// anchorFor finds the most specific anchor covering name.
func (ta TrustAnchors) anchorFor(name string) (string, ed25519.PublicKey, bool) {
	name = strings.ToLower(name)
	best := ""
	var key ed25519.PublicKey
	for zone, k := range ta {
		if (name == zone || strings.HasSuffix(name, "."+zone)) && len(zone) > len(best) {
			best, key = zone, k
		}
	}
	return best, key, best != ""
}

// Validate checks a response's answers against the trust anchors. It
// returns nil when the covered record set verifies, ErrNoSignature when a
// covered zone's answer lacks an RRSIG, ErrNoAnchor when the zone is not
// anchored (caller should fall back to quorum), and ErrBadSignature when
// verification fails.
func (ta TrustAnchors) Validate(resp *packet.DNS) error {
	if len(resp.Questions) == 0 {
		return fmt.Errorf("dnssim: response without question")
	}
	q := resp.Questions[0]
	zone, key, ok := ta.anchorFor(q.Name)
	if !ok {
		return ErrNoAnchor
	}
	var rdatas [][]byte
	var sig []byte
	for _, a := range resp.Answers {
		switch a.Type {
		case packet.DNSTypeRRSIG:
			signer, s, err := parseRRSIG(a.Data)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadSignature, err)
			}
			if signer != zone {
				return fmt.Errorf("%w: signer %q, want %q", ErrBadSignature, signer, zone)
			}
			sig = s
		case q.Type:
			rdatas = append(rdatas, a.Data)
		}
	}
	if sig == nil {
		return ErrNoSignature
	}
	if len(rdatas) == 0 {
		return fmt.Errorf("%w: signature without records", ErrBadSignature)
	}
	if !ed25519.Verify(key, signableBytes(q.Name, q.Type, rdatas), sig) {
		return ErrBadSignature
	}
	return nil
}

// QuorumResult reports a quorum resolution.
type QuorumResult struct {
	Addr packet.IPv4Address
	// Votes is how many resolvers agreed on Addr.
	Votes int
	// Total is how many resolvers returned an answer at all.
	Total int
}

// QuorumResolve queries every resolver for an A record and returns the
// majority answer, requiring at least quorum agreeing votes. This is the
// paper's open-resolver cross-check for unsigned names (§4).
func QuorumResolve(name string, resolvers []*Resolver, quorum int) (QuorumResult, error) {
	votes := make(map[packet.IPv4Address]int)
	total := 0
	for _, r := range resolvers {
		resp := r.Query(name, packet.DNSTypeA)
		if resp.Rcode != packet.DNSRcodeNoError {
			continue
		}
		for _, a := range resp.Answers {
			if a.Type == packet.DNSTypeA {
				votes[a.A()]++
				total++
				break // one vote per resolver
			}
		}
	}
	var best packet.IPv4Address
	bestVotes := 0
	for addr, v := range votes {
		if v > bestVotes || (v == bestVotes && addrLess(addr, best)) {
			best, bestVotes = addr, v
		}
	}
	res := QuorumResult{Addr: best, Votes: bestVotes, Total: total}
	if bestVotes < quorum {
		return res, fmt.Errorf("%w: best answer has %d/%d votes, need %d", ErrNoQuorum, bestVotes, total, quorum)
	}
	return res, nil
}

func addrLess(a, b packet.IPv4Address) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
