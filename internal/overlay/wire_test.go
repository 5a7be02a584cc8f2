package overlay

import (
	"bytes"
	"encoding/base64"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvn/internal/netsim"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/envelope.golden from this run")

// goldenEnvelope is a find-value answer exercising every ID-bearing
// field of the wire format: a target, a sender, peer entries, an offer
// and a module record, and gossip claims.
func goldenEnvelope(t *testing.T) *Envelope {
	kp := testKey(t, 0x901)
	from := PeerInfo{ID: IDFromPublicKey(kp.Public), Addr: "n0", Key: kp.Public}
	var peers []PeerInfo
	for i := uint64(0); i < 3; i++ {
		pk := testKey(t, 0x910+i)
		peers = append(peers, PeerInfo{ID: IDFromPublicKey(pk.Public), Addr: "n" + string(rune('1'+i)), Key: pk.Public})
	}
	offer := NewOfferRecord("pvn", OfferAd{Provider: "isp", DeployServer: "d",
		Standards: []string{"match-action"}, Supported: map[string]int64{"tls-verify": 3}}, kp, 4)
	return &Envelope{
		Kind:    KindValue,
		RPC:     42,
		From:    from,
		Target:  ServiceKey("pvn"),
		Records: []*Record{offer, NewModuleRecord(signedModule(t, kp), kp, 2)},
		Peers:   peers,
		Gossip: []RepClaim{
			{Provider: "isp", Reporter: "dev-1", Seq: 3, Audits: 9, Violations: 1},
			{Provider: "isp-b", Reporter: "dev-2", Seq: 1, Audits: 2, Bypasses: 1, Violations: 1},
		},
	}
}

// TestEnvelopeWireGolden pins the envelope encoding byte for byte: the
// bytes are what peers sign, hash and size on the simulated links, so
// an encoder change that alters them changes every overlay experiment.
func TestEnvelopeWireGolden(t *testing.T) {
	got := goldenEnvelope(t).Encode()
	path := filepath.Join("testdata", "envelope.golden")
	if *updateWire {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope encoding drifted from %s:\n got %s\nwant %s", path, got, want)
	}
	e, err := DecodeEnvelope(want)
	if err != nil {
		t.Fatal(err)
	}
	if again := e.Encode(); !bytes.Equal(again, want) {
		t.Fatalf("decode/encode of the golden changed it:\n got %s\nwant %s", again, want)
	}
	for _, r := range e.Records {
		if err := r.Verify(); err != nil {
			t.Fatalf("recorded %s signature no longer verifies: %v", r.Kind, err)
		}
	}
}

// TestDecodeEnvelopeCanonicalOnly: each case is one edit to a valid
// envelope that encoding/json would still decode, and the reader must
// refuse, because Encode would not write it. Delivered to a node, each
// counts once as a bad envelope.
func TestDecodeEnvelopeCanonicalOnly(t *testing.T) {
	e := goldenEnvelope(t)
	e.Peers = nil
	e.Err = "quota \"<full>\" \u00e9\u2028" // escapes: the reader's encoding/json path
	canon := string(e.Encode())
	key := base64.StdEncoding.EncodeToString(e.From.Key)
	pad := strings.IndexByte(key, '=') - 1
	flipped := key[:pad] + string(base64Alphabet[strings.IndexByte(base64Alphabet, key[pad])^1]) + key[pad+1:]
	target := e.Target.String()
	edit := func(old, new string) string {
		if !strings.Contains(canon, old) {
			t.Fatalf("%q is not in the envelope", old)
		}
		return strings.Replace(canon, old, new, 1)
	}
	cases := []struct {
		name string
		data string
		// jsonRejects marks a case encoding/json refuses as well.
		jsonRejects bool
	}{
		{name: "whitespace between tokens", data: edit(`,"rpc":42`, `, "rpc": 42`)},
		{name: "trailing newline", data: canon + "\n"},
		{name: "swapped keys", data: edit(`{"kind":"value","rpc":42`, `{"rpc":42,"kind":"value"`)},
		{name: "unknown key", data: edit(`,"rpc":42`, `,"rpc":42,"x":1`)},
		{name: "duplicate key", data: edit(`,"rpc":42`, `,"rpc":41,"rpc":42`)},
		{name: "case-folded key", data: edit(`{"kind":`, `{"Kind":`)},
		{name: "null peers", data: edit(`,"gossip":`, `,"peers":null,"gossip":`)},
		{name: "upper-case ID hex", data: edit(target, strings.ToUpper(target))},
		{name: "base64 pad bits", data: edit(key, flipped)},
		{name: "escaped letter", data: edit(`"kind":"value"`, `"kind":"v\u0061lue"`)},
		{name: "leading zero", data: edit(`,"rpc":42`, `,"rpc":042`), jsonRejects: true},
		{name: "negative zero", data: edit(`"bypasses":0`, `"bypasses":-0`)},
	}
	_, nodes := newSwarm(t, 0xca1, 1, Config{})
	node := nodes[0]
	for _, c := range cases {
		if _, err := decodeEnvelopeReference([]byte(c.data)); (err != nil) != c.jsonRejects {
			t.Errorf("%s: encoding/json decode error %v, want rejected=%t", c.name, err, c.jsonRejects)
		}
		if _, err := DecodeEnvelope([]byte(c.data)); err == nil {
			t.Errorf("%s: decode must fail", c.name)
		}
		before := node.Stats.BadEnvelopes
		node.deliver(&netsim.Message{Payload: []byte(c.data)})
		if got := node.Stats.BadEnvelopes - before; got != 1 {
			t.Errorf("%s: delivered, counted %d bad envelopes, want 1", c.name, got)
		}
	}
	if _, err := DecodeEnvelope([]byte(canon)); err != nil {
		t.Fatalf("the unedited envelope must decode: %v", err)
	}
}

const base64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// TestDecodeEnvelopeBoundsBeforeAlloc: a 256 KiB envelope listing far
// more gossip claims or peers than the caps is refused at the first
// entry past the cap, so it costs no more than twice the allocations of
// a legal envelope holding exactly the cap.
func TestDecodeEnvelopeBoundsBeforeAlloc(t *testing.T) {
	kp := testKey(t, 0x77)
	peer := PeerInfo{ID: IDFromPublicKey(kp.Public), Addr: "n1", Key: kp.Public}
	claim := RepClaim{Provider: "isp", Reporter: "dev-1", Seq: 1, Audits: 2, Violations: 1}
	lists := []struct {
		name  string
		limit int
		build func(n int) *Envelope
	}{
		{"gossip claims", maxGossipClaims, func(n int) *Envelope {
			e := validEnvelope(t)
			for i := 0; i < n; i++ {
				e.Gossip = append(e.Gossip, claim)
			}
			return e
		}},
		{"peers", maxPeers, func(n int) *Envelope {
			e := validEnvelope(t)
			for i := 0; i < n; i++ {
				e.Peers = append(e.Peers, peer)
			}
			return e
		}},
	}
	for _, l := range lists {
		one, two := len(l.build(1).Encode()), len(l.build(2).Encode())
		n := 1 + (maxEnvelopeBytes-two)/(two-one)
		legal, hostile := l.build(l.limit).Encode(), l.build(n).Encode()
		if len(hostile) > maxEnvelopeBytes {
			t.Fatalf("%s: hostile envelope is %d bytes, over the %d cap", l.name, len(hostile), maxEnvelopeBytes)
		}
		var legalErr, hostileErr error
		legalAllocs := testing.AllocsPerRun(5, func() { _, legalErr = DecodeEnvelope(legal) })
		hostileAllocs := testing.AllocsPerRun(5, func() { _, hostileErr = DecodeEnvelope(hostile) })
		if legalErr != nil {
			t.Fatalf("%s: legal envelope at the cap: %v", l.name, legalErr)
		}
		if hostileErr == nil {
			t.Fatalf("%s: %d entries accepted", l.name, n)
		}
		if hostileAllocs > 2*legalAllocs {
			t.Errorf("%s: %d entries in %d bytes cost %.0f allocations to refuse, a legal %d cost %.0f",
				l.name, n, len(hostile), hostileAllocs, l.limit, legalAllocs)
		}
	}
}

// TestDecodeEnvelopeAllocBudget pins what reading a reply allocates.
// The peer list is allocated once at its final length, with every key
// in one slab, so peers cost the list, the slab and one address each;
// a record costs its struct and one allocation per string or byte
// field.
func TestDecodeEnvelopeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	kp := testKey(t, 0xa10)
	from := PeerInfo{ID: IDFromPublicKey(kp.Public), Addr: "n0", Key: kp.Public}
	var peers []PeerInfo
	for i := uint64(0); i < bucketSize; i++ {
		pk := testKey(t, 0xa20+i)
		peers = append(peers, PeerInfo{ID: IDFromPublicKey(pk.Public), Addr: fmt.Sprint("n", i+1), Key: pk.Public})
	}
	var recs []*Record
	for i := uint64(0); i < 3; i++ {
		recs = append(recs, NewOfferRecord("pvn", OfferAd{Provider: fmt.Sprint("isp-", i), DeployServer: "d"},
			testKey(t, 0xa40+i), 1))
	}
	// The envelope, its kind and the sender's address and key, then the
	// list, the slab and the addresses.
	peerAllocs := 4 + 2 + bucketSize
	cases := []struct {
		name   string
		env    *Envelope
		budget int
	}{
		{"16-peer nodes", &Envelope{Kind: KindNodes, RPC: 1, From: from, Target: ServiceKey("pvn"), Peers: peers},
			peerAllocs},
		// Records grow their list by append: 1, 2 and 4 slots. Each
		// record is its struct plus kind, service, publisher, public
		// key, body and signature.
		{"3-record value", &Envelope{Kind: KindValue, RPC: 2, From: from, Target: ServiceKey("pvn"), Records: recs, Peers: peers},
			peerAllocs + 3 + 3*7},
	}
	for _, c := range cases {
		wire := c.env.Encode()
		var err error
		got := testing.AllocsPerRun(20, func() { _, err = DecodeEnvelope(wire) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > float64(c.budget) {
			t.Errorf("%s: %.0f allocations to decode, budget %d", c.name, got, c.budget)
		}
	}
}
