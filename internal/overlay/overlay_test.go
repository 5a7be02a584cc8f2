package overlay

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pvn/internal/auditor"
	"pvn/internal/discovery"
	"pvn/internal/pki"
	"pvn/internal/store"
)

func testKey(t testing.TB, seed uint64) pki.KeyPair {
	t.Helper()
	kp, err := pki.GenerateKey(pki.NewDeterministicRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func idWithBytes(b ...byte) ID {
	var id ID
	copy(id[:], b)
	return id
}

func TestIDDistanceOrderAndBuckets(t *testing.T) {
	a := idWithBytes(0x00)
	b := idWithBytes(0x01)
	c := idWithBytes(0x80)

	if distanceCmp(b, c, a) >= 0 {
		t.Fatal("0x01 is XOR-closer to 0x00 than 0x80")
	}
	// Highest differing bit: 0x80 differs from 0x00 in bit 255 (the
	// top), 0x01 in bit 248 of the first byte's low bit.
	if got := BucketIndex(a, c); got != IDBits-1 {
		t.Fatalf("bucket(0x00,0x80) = %d, want %d", got, IDBits-1)
	}
	if got := BucketIndex(a, b); got != IDBits-8 {
		t.Fatalf("bucket(0x00,0x01) = %d, want %d", got, IDBits-8)
	}
	if got := BucketIndex(a, a); got != -1 {
		t.Fatalf("bucket(self,self) = %d, want -1", got)
	}
}

func TestIDJSONRoundTrip(t *testing.T) {
	id := ContentKey([]byte("hello"))
	blob, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %s != %s", back, id)
	}
	if err := json.Unmarshal([]byte(`"abcd"`), &back); err == nil {
		t.Fatal("short hex must be rejected")
	}
	if err := json.Unmarshal([]byte(`42`), &back); err == nil {
		t.Fatal("non-string must be rejected")
	}
	hexID := id.String()
	for _, bad := range []string{`null`, `"\u0030` + hexID[1:] + `"`, `"` + hexID[:63] + `g"`, `"` + hexID + `00"`} {
		back = id
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("%s must be rejected", bad)
		} else if back != id {
			t.Errorf("rejected %s still changed the ID", bad)
		}
	}
	var upper ID
	if err := json.Unmarshal([]byte(`"`+strings.ToUpper(hexID)+`"`), &upper); err != nil || upper != id {
		t.Fatalf("upper-case hex: %v", err)
	}
}

func TestServiceAndContentKeysDiffer(t *testing.T) {
	if ServiceKey("pvn") == ContentKey([]byte("pvn")) {
		t.Fatal("service keys must live in a domain-separated space")
	}
	if ServiceKey("a") == ServiceKey("b") {
		t.Fatal("distinct services must hash apart")
	}
}

func TestTableUpdateAndEviction(t *testing.T) {
	self := idWithBytes(0x00)
	tb := NewTable(self, 2)

	// Two peers in the same top bucket (0x80, 0x81 both differ at bit 255).
	p1 := Peer{ID: idWithBytes(0x80), Addr: "p1"}
	p2 := Peer{ID: idWithBytes(0x81), Addr: "p2"}
	p3 := Peer{ID: idWithBytes(0x82), Addr: "p3"}
	if !tb.Update(p1, 0) || !tb.Update(p2, time.Second) {
		t.Fatal("inserts into empty bucket must succeed")
	}
	// Bucket full, no strikes: newcomer dropped (long-lived bias).
	if tb.Update(p3, 2*time.Second) {
		t.Fatal("full bucket without failures must drop the newcomer")
	}
	// One strike is not eviction...
	if tb.Fail(p1.ID) {
		t.Fatal("first strike must not evict")
	}
	// ...but now the newcomer can replace the failing contact.
	if !tb.Update(p3, 3*time.Second) {
		t.Fatal("newcomer must replace a failing contact")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
	// Two consecutive strikes evict.
	tb.Fail(p2.ID)
	if !tb.Fail(p2.ID) {
		t.Fatal("second strike must evict")
	}
	if tb.Update(Peer{ID: self, Addr: "self"}, 0) {
		t.Fatal("self must never be bucketed")
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d after the eviction, want 1", tb.Len())
	}
}

func TestTableClosestOrdering(t *testing.T) {
	self := idWithBytes(0x00)
	tb := NewTable(self, 16)
	peers := []Peer{
		{ID: idWithBytes(0x80), Addr: "far"},
		{ID: idWithBytes(0x01), Addr: "near"},
		{ID: idWithBytes(0x10), Addr: "mid"},
	}
	for _, p := range peers {
		tb.Update(p, 0)
	}
	got := tb.Closest(self, 3)
	if len(got) != 3 || got[0].Addr != "near" || got[1].Addr != "mid" || got[2].Addr != "far" {
		t.Fatalf("closest order wrong: %+v", got)
	}
	if got := tb.Closest(self, 2); len(got) != 2 {
		t.Fatalf("closest(2) returned %d", len(got))
	}
}

// TestTableFootprint: a table stores only the buckets from the top down
// to the deepest one in use. In a 128-node overlay that is about eight,
// so 128 full tables retain their contacts and little else; 256 bucket
// headers each (6 KiB a table) would not fit the bound. Evicting every
// contact gives the buckets back.
func TestTableFootprint(t *testing.T) {
	const nodes = 128
	peers := make([]Peer, nodes)
	for i := range peers {
		peers[i] = Peer{ID: ContentKey([]byte(fmt.Sprint(i))), Addr: fmt.Sprint("n", i)}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tables := make([]*Table, nodes)
	contacts := 0
	for i := range tables {
		tables[i] = NewTable(peers[i].ID, bucketSize)
		for _, p := range peers {
			tables[i].Update(p, 0)
		}
		contacts += tables[i].Len()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// A contact is one 96-byte allocation and a slot in its bucket, which
	// append may have left up to half empty; a table and its bucket
	// headers get 1 KiB.
	if bound := int64(contacts)*(96+2*8) + nodes*1024; retained > bound {
		t.Errorf("%d tables holding %d contacts retain %d bytes, bound %d", nodes, contacts, retained, bound)
	}
	tb := tables[0]
	for _, p := range peers {
		tb.Fail(p.ID)
		tb.Fail(p.ID)
	}
	if tb.Len() != 0 || len(tb.buckets) != 0 {
		t.Errorf("after evicting every contact: %d contacts in %d buckets", tb.Len(), len(tb.buckets))
	}
	runtime.KeepAlive(tables)
}

// TestClosestMatchesSortAll holds Closest's bucket walk to the plain
// definition: every contact sorted by XOR distance, first n kept. The
// tables crowd self's low buckets (peers sharing long prefixes with it)
// and the targets include self, table members, random points and
// points sharing long prefixes with self.
func TestClosestMatchesSortAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randID := func() ID {
		var id ID
		rng.Read(id[:])
		return id
	}
	// near returns a random ID whose highest bit differing from self is
	// bit, so it lands in bucket bit.
	near := func(self ID, bit int) ID {
		id := randID()
		byteIdx := IDBytes - 1 - bit/8
		copy(id[:byteIdx], self[:byteIdx])
		mask := byte(1) << uint(bit%8)
		id[byteIdx] = (self[byteIdx] &^ (mask<<1 - 1)) | (^self[byteIdx] & mask) | (id[byteIdx] & (mask - 1))
		return id
	}
	for bit := 0; bit < IDBits; bit++ {
		if self := randID(); BucketIndex(self, near(self, bit)) != bit {
			t.Fatalf("near(self, %d) lands in bucket %d", bit, BucketIndex(self, near(self, bit)))
		}
	}
	for trial := 0; trial < 40; trial++ {
		self := randID()
		tb := NewTable(self, 1+rng.Intn(16))
		var all []Peer
		seen := map[ID]bool{}
		for i := 0; i < 300; i++ {
			id := randID()
			if rng.Intn(2) == 0 {
				id = near(self, rng.Intn(IDBits))
			}
			// Deep buckets hold few distinct IDs (bucket 0 only one),
			// so near() repeats itself; the reference lists each once.
			if tb.Update(Peer{ID: id, Addr: fmt.Sprint(i)}, 0) && !seen[id] {
				seen[id] = true
				all = append(all, Peer{ID: id, Addr: fmt.Sprint(i)})
			}
		}
		targets := []ID{self, randID(), near(self, 0), near(self, 3), near(self, 40), near(self, 200)}
		for i := 0; i < 4; i++ {
			targets = append(targets, all[rng.Intn(len(all))].ID)
		}
		for _, target := range targets {
			want := append([]Peer(nil), all...)
			sort.Slice(want, func(i, j int) bool { return distanceCmp(want[i].ID, want[j].ID, target) < 0 })
			for _, n := range []int{0, 1, 3, 16, 64, len(all), len(all) + 5} {
				w := want
				if len(w) > n {
					w = w[:n]
				}
				got := tb.Closest(target, n)
				if len(got) != len(w) {
					t.Fatalf("trial %d n=%d: %d peers, want %d", trial, n, len(got), len(w))
				}
				for i := range w {
					if got[i].ID != w[i].ID {
						t.Fatalf("trial %d self %s target %s n=%d: position %d is %s, want %s",
							trial, self, target, n, i, got[i].ID, w[i].ID)
					}
				}
			}
		}
	}
}

func validEnvelope(t *testing.T) *Envelope {
	kp := testKey(t, 7)
	return &Envelope{
		Kind: KindPing,
		RPC:  1,
		From: PeerInfo{ID: IDFromPublicKey(kp.Public), Addr: "n1", Key: kp.Public},
	}
}

func TestDecodeEnvelopeAcceptsValid(t *testing.T) {
	e := validEnvelope(t)
	got, err := DecodeEnvelope(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindPing || got.From.Addr != "n1" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestDecodeEnvelopeRejects(t *testing.T) {
	base := validEnvelope(t)
	kp := testKey(t, 8)

	cases := map[string][]byte{
		"garbage":   []byte("not json"),
		"oversized": make([]byte, maxEnvelopeBytes+1),
	}
	bad := *base
	bad.Kind = "exec"
	cases["unknown kind"] = bad.Encode()

	spoofed := *base
	spoofed.From.Key = kp.Public // key does not hash to claimed ID
	cases["spoofed sender key"] = spoofed.Encode()

	// A peer entry naming a known node's ID with another key: the only
	// key-binding check a reply's contacts get is this one.
	forged := *base
	forged.Peers = []PeerInfo{{ID: base.From.ID, Addr: "n9", Key: kp.Public}}
	cases["forged peer key under a known ID"] = forged.Encode()

	noaddr := *base
	noaddr.From.Addr = ""
	cases["empty sender addr"] = noaddr.Encode()

	flood := *base
	for i := 0; i < maxPeers+1; i++ {
		flood.Peers = append(flood.Peers, PeerInfo{ID: idWithBytes(byte(i + 1)), Addr: "x"})
	}
	cases["peer flood"] = flood.Encode()

	badrec := *base
	badrec.Kind = KindStore
	badrec.Record = &Record{Kind: "bogus", Publisher: "p", PublicKey: kp.Public, Body: []byte("{}"), Key: idWithBytes(1)}
	cases["bad record kind"] = badrec.Encode()

	badclaim := *base
	badclaim.Gossip = []RepClaim{{Provider: "", Reporter: "r", Audits: 1}}
	cases["empty gossip provider"] = badclaim.Encode()

	for name, data := range cases {
		if _, err := DecodeEnvelope(data); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

func TestOfferRecordSignVerifyTamper(t *testing.T) {
	kp := testKey(t, 10)
	ad := OfferAd{
		Provider:     "isp-a",
		DeployServer: "d",
		Standards:    []string{discovery.StandardMatchAction},
		Supported:    map[string]int64{"tls-verify": 5},
	}
	rec := NewOfferRecord("pvn", ad, kp, 1)
	if err := rec.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOfferAd(rec); err != nil {
		t.Fatal(err)
	}

	// Tampered body breaks the signature.
	evil := *rec
	evil.Body = []byte(`{"provider":"isp-a","supported":{"tls-verify":0}}`)
	if err := evil.Verify(); !errors.Is(err, ErrBadRecordSig) {
		t.Fatalf("tampered body: %v, want ErrBadRecordSig", err)
	}

	// Re-signed under a different key: signature passes, but the key
	// binding is intact only if the record still claims its own service.
	wrongKey := *rec
	wrongKey.Key = ServiceKey("other-service")
	wrongKey.Sign(kp.Private)
	if err := wrongKey.Verify(); !errors.Is(err, ErrBadServiceKey) {
		t.Fatalf("wrong service key: %v, want ErrBadServiceKey", err)
	}
}

func signedModule(t *testing.T, kp pki.KeyPair) *store.Module {
	t.Helper()
	m := &store.Module{
		Name: "acme/blocker", Version: "1.0", Publisher: "acme",
		Type: "tracker-block", Config: map[string]string{"list": "ads.example"},
	}
	m.Sign(kp.Private)
	return m
}

func TestModuleRecordContentAddressing(t *testing.T) {
	kp := testKey(t, 11)
	m := signedModule(t, kp)
	rec := NewModuleRecord(m, kp, 1)
	if rec.Key != ModuleKey(m) {
		t.Fatal("record key must be the content address")
	}
	got, err := DecodeModuleRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.ContentAddress() != m.ContentAddress() {
		t.Fatalf("round trip %+v", got)
	}

	// A malicious replica swaps the config and re-signs the record with
	// its own key: the content no longer hashes to the key the fetcher
	// asked for.
	evilKey := testKey(t, 12)
	tampered := *m
	tampered.Config = map[string]string{"list": "nothing"}
	tampered.Sign(evilKey.Private)
	evil := *rec
	evil.Body = tampered.Encode()
	evil.PublicKey = evilKey.Public
	evil.Sign(evilKey.Private)
	if err := evil.Verify(); !errors.Is(err, ErrBadContentKey) {
		t.Fatalf("tampered module: %v, want ErrBadContentKey", err)
	}
}

func TestInstallRemoteTrustChain(t *testing.T) {
	kp := testKey(t, 13)
	m := signedModule(t, kp)
	s := store.New()
	s.RegisterPublisher("acme", kp.Public)

	if err := s.InstallRemote("alice", m, m.ContentAddress()); err != nil {
		t.Fatal(err)
	}
	// Tampered manifest: wrong address.
	tampered := *m
	tampered.Config = map[string]string{"list": "evil"}
	if err := s.InstallRemote("alice", &tampered, m.ContentAddress()); !errors.Is(err, store.ErrAddressMismatch) {
		t.Fatalf("tampered: %v, want ErrAddressMismatch", err)
	}
	// Unknown publisher.
	other := *m
	other.Publisher = "nobody"
	if err := s.InstallRemote("alice", &other, other.ContentAddress()); !errors.Is(err, store.ErrUnknownPublisher) {
		t.Fatalf("unknown publisher: %v", err)
	}
	// Corrupted signature at the right content address.
	forged := *m
	forged.Signature = append([]byte(nil), m.Signature...)
	forged.Signature[0] ^= 0xff
	if err := s.InstallRemote("alice", &forged, forged.ContentAddress()); !errors.Is(err, store.ErrBadSignature) {
		t.Fatalf("corrupted signature: %v, want ErrBadSignature", err)
	}
	// A signed paid module: there is no purchase path, so no entitlement.
	paid := *m
	paid.PriceMicro = 500
	paid.Sign(kp.Private)
	if err := s.InstallRemote("alice", &paid, paid.ContentAddress()); !errors.Is(err, store.ErrNotEntitled) {
		t.Fatalf("paid module: %v, want ErrNotEntitled", err)
	}
}

func TestOfferAdToOffer(t *testing.T) {
	ad := &OfferAd{
		Provider:     "isp-a",
		DeployServer: "d",
		Standards:    []string{discovery.StandardMatchAction},
		Supported:    map[string]int64{"tls-verify": 5, "pii-detect": 7},
	}
	rec := &Record{Seq: 3}
	dm := &discovery.DM{
		Seq:           2,
		Standards:     []string{discovery.StandardMatchAction},
		RequiredTypes: []string{"tls-verify", "pii-detect", "transcoder"},
	}
	o := ad.ToOffer(rec, dm, time.Second)
	if o == nil {
		t.Fatal("matching standards must yield an offer")
	}
	if o.TotalCost != 12 || len(o.SupportedTypes) != 2 || o.DMSeq != 2 {
		t.Fatalf("offer %+v", o)
	}
	if o.ExpiresAt != time.Second+30*time.Second {
		t.Fatalf("expiry %v", o.ExpiresAt)
	}

	noShared := &discovery.DM{Seq: 2, Standards: []string{"other/1"}}
	if ad.ToOffer(rec, noShared, 0) != nil {
		t.Fatal("no shared standard must yield nil")
	}
}

func TestRepStoreMergeAndScore(t *testing.T) {
	rs := NewRepStore()
	c1 := RepClaim{Provider: "isp-a", Reporter: "dev1", Seq: 1, Audits: 10, Violations: 5, Bypasses: 2}
	if n := rs.Merge([]RepClaim{c1}); n != 1 {
		t.Fatalf("merge = %d, want 1", n)
	}
	// Stale seq is ignored; newer supersedes.
	stale := c1
	stale.Violations = 0
	if n := rs.Merge([]RepClaim{stale}); n != 0 {
		t.Fatal("same-seq claim must not re-merge")
	}
	newer := c1
	newer.Seq, newer.Violations, newer.Bypasses = 2, 0, 0
	if n := rs.Merge([]RepClaim{newer}); n != 1 {
		t.Fatal("newer seq must supersede")
	}
	if s, ok := rs.Score("isp-a"); !ok || s != 1 {
		t.Fatalf("score %v %v", s, ok)
	}
	// Second reporter with a bad view: mean of 1 and 0.5.
	rs.Merge([]RepClaim{{Provider: "isp-a", Reporter: "dev2", Seq: 1, Audits: 10, Violations: 5}})
	if s, _ := rs.Score("isp-a"); s != 0.75 {
		t.Fatalf("score %v, want 0.75", s)
	}
	if _, ok := rs.Score("never-heard"); ok {
		t.Fatal("unknown provider must report !ok")
	}
	// Malformed claims never merge.
	if n := rs.Merge([]RepClaim{{Provider: "x", Reporter: "r", Audits: -1}}); n != 0 {
		t.Fatal("malformed claim merged")
	}
}

func TestRepStoreSampleRotates(t *testing.T) {
	rs := NewRepStore()
	for i := 0; i < 4; i++ {
		rs.Merge([]RepClaim{{Provider: "p" + string(rune('a'+i)), Reporter: "r", Seq: 1, Audits: 1}})
	}
	first := rs.Sample(2)
	second := rs.Sample(2)
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("sample sizes %d %d", len(first), len(second))
	}
	if first[0].Provider == second[0].Provider {
		t.Fatal("successive samples must rotate through the claim set")
	}
	if rs.Sample(0) != nil {
		t.Fatal("zero-size sample must be nil")
	}
}

func TestFoldLedger(t *testing.T) {
	l := auditor.NewLedger()
	for i := 0; i < 4; i++ {
		l.RecordAudit("isp-liar")
	}
	l.RecordViolation(auditor.Violation{Provider: "isp-liar", Kind: auditor.ViolationSecurityBypass})
	l.RecordViolation(auditor.Violation{Provider: "isp-liar", Kind: auditor.ViolationContentMod})
	l.RecordAudit("isp-honest")

	claims := FoldLedger("dev1", l, 3)
	if len(claims) != 2 {
		t.Fatalf("claims %d, want 2", len(claims))
	}
	// Deterministic order: isp-honest < isp-liar.
	if claims[0].Provider != "isp-honest" || claims[1].Provider != "isp-liar" {
		t.Fatalf("order %+v", claims)
	}
	liar := claims[1]
	if liar.Audits != 4 || liar.Violations != 2 || liar.Bypasses != 1 || liar.Seq != 3 {
		t.Fatalf("liar claim %+v", liar)
	}
	if !liar.wellFormed() {
		t.Fatal("folded claim must be well-formed")
	}
}

func TestRankOffers(t *testing.T) {
	rs := NewRepStore()
	rs.Merge([]RepClaim{
		{Provider: "isp-liar", Reporter: "dev2", Seq: 1, Audits: 10, Violations: 8},
		{Provider: "isp-honest", Reporter: "dev2", Seq: 1, Audits: 10, Violations: 0},
	})
	offers := []*discovery.Offer{
		{Provider: "isp-liar", TotalCost: 1},    // cheapest but gossiped bad
		{Provider: "isp-honest", TotalCost: 10}, // gossiped clean
		{Provider: "isp-new", TotalCost: 5},     // never heard of
	}
	ranked := RankOffers(offers, rs)
	if ranked[0].Provider != "isp-new" || ranked[1].Provider != "isp-honest" || ranked[2].Provider != "isp-liar" {
		t.Fatalf("rank order: %s %s %s", ranked[0].Provider, ranked[1].Provider, ranked[2].Provider)
	}
	// Ranking is non-destructive.
	if offers[0].Provider != "isp-liar" {
		t.Fatal("input slice mutated")
	}
}
