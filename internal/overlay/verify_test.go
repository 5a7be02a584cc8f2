package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pvn/internal/discovery"
)

func cloneRecord(r *Record) *Record {
	c := *r
	c.PublicKey = bytes.Clone(r.PublicKey)
	c.Body = bytes.Clone(r.Body)
	c.Sig = bytes.Clone(r.Sig)
	return &c
}

// TestVerifyRecordMatchesVerify is the memo's exactness oracle: once a
// valid record is memoized, changing any single field Verify reads must
// miss the memo and give Verify's own verdict. A memo keyed on the
// signature alone (or the pointer, or publisher and seq) answers nil
// for a swapped body or key and fails here.
func TestVerifyRecordMatchesVerify(t *testing.T) {
	_, nodes := newSwarm(t, 40, 1, Config{})
	n := nodes[0]
	kp, other := testKey(t, 41), testKey(t, 42)
	offer := NewOfferRecord("pvn", OfferAd{Provider: "isp", DeployServer: "d",
		Standards: []string{"match-action"}, Supported: map[string]int64{"tls-verify": 3}}, kp, 1)
	module := NewModuleRecord(signedModule(t, kp), kp, 1)

	mutations := map[string]func(r *Record){
		"kind": func(r *Record) {
			if r.Kind == RecordOffer {
				r.Kind = RecordModule
			} else {
				r.Kind = RecordOffer
			}
		},
		"key":        func(r *Record) { r.Key[0] ^= 1 },
		"service":    func(r *Record) { r.Service += "x" },
		"publisher":  func(r *Record) { r.Publisher += "x" },
		"public key": func(r *Record) { r.PublicKey = bytes.Clone(other.Public) },
		"seq":        func(r *Record) { r.Seq++ },
		"body byte": func(r *Record) {
			// Bump the first lowercase letter: it sits inside an
			// object key, so the body stays valid JSON.
			i := bytes.IndexFunc(r.Body, func(c rune) bool { return c >= 'a' && c < 'z' })
			r.Body[i]++
		},
		"sig byte": func(r *Record) { r.Sig[0] ^= 1 },
	}
	for _, base := range []*Record{offer, module} {
		if v, err := n.verifyRecord(base); err != nil || v.r != base {
			t.Fatalf("%s: valid record: err %v, vouches for %p, want %p", base.Kind, err, v.r, base)
		}
		runs := n.Stats.RecordVerifies
		if _, err := n.verifyRecord(cloneRecord(base)); err != nil || n.Stats.RecordVerifies != runs {
			t.Fatalf("%s: identical copy: err %v, %d new Verify runs, want a memo hit", base.Kind, err, n.Stats.RecordVerifies-runs)
		}
		for name, mutate := range mutations {
			r := cloneRecord(base)
			mutate(r)
			want := r.Verify()
			if want == nil {
				t.Fatalf("%s/%s: mutation left the record valid; the oracle needs a rejected record", base.Kind, name)
			}
			for pass := 0; pass < 2; pass++ {
				if v, got := n.verifyRecord(r); fmt.Sprint(got) != fmt.Sprint(want) || v.r != nil {
					t.Errorf("%s/%s pass %d: verifyRecord = %v vouching for %p, Verify = %v", base.Kind, name, pass, got, v.r, want)
				}
			}
		}
	}
}

// TestVerifyRecordOncePerNode: a repeated Get from one node runs the
// full Verify once per distinct record the first time, although every
// replica returns them, and never again; the offer decode that follows
// in OfferSource.Query is a memo hit too.
func TestVerifyRecordOncePerNode(t *testing.T) {
	net, nodes := newSwarm(t, 43, 16, Config{})
	for p := 0; p < 3; p++ {
		ad := OfferAd{Provider: fmt.Sprintf("isp-%d", p), DeployServer: "d",
			Standards: []string{"match-action"}, Supported: map[string]int64{"tls-verify": 1}}
		nodes[1+p].Put(NewOfferRecord("pvn", ad, testKey(t, uint64(200+p)), 1), nil)
	}
	net.Clock.Run()
	var dev *Node
	for _, n := range nodes {
		if n.Stats.RecordVerifies == 0 {
			dev = n
			break
		}
	}
	if dev == nil {
		t.Fatal("every node already verified a record; no clean device")
	}
	want := []int{3, 0, 0}
	for i, w := range want {
		before := dev.Stats.RecordVerifies
		var res LookupResult
		dev.Get(ServiceKey("pvn"), func(r LookupResult) { res = r })
		net.Clock.Run()
		if len(res.Records) != 3 {
			t.Fatalf("get %d: %d records, want 3", i, len(res.Records))
		}
		if got := dev.Stats.RecordVerifies - before; got != w {
			t.Errorf("get %d: %d Verify runs, want %d", i, got, w)
		}
	}
	before := dev.Stats.RecordVerifies
	src := &OfferSource{Node: dev, Service: "pvn"}
	dm := &discovery.DM{DeviceID: "dev", Seq: 1, Standards: []string{"match-action"}, RequiredTypes: []string{"tls-verify"}}
	offers := 0
	src.Query(dm, func(*discovery.Offer) { offers++ })
	net.Clock.Run()
	if src.AdsSeen != 3 || src.AdsRejected != 0 || offers != 3 {
		t.Fatalf("query saw %d ads, rejected %d, delivered %d offers", src.AdsSeen, src.AdsRejected, offers)
	}
	if got := dev.Stats.RecordVerifies - before; got != 0 {
		t.Errorf("query after warm gets: %d Verify runs, want 0", got)
	}
	if dev.Stats.BadRecords != 0 {
		t.Errorf("%d records rejected", dev.Stats.BadRecords)
	}
}

// TestVerifyMemoBound: the memo holds maxVerified records; the next
// one empties it whole and is counted, after which an earlier record
// costs one Verify again.
func TestVerifyMemoBound(t *testing.T) {
	_, nodes := newSwarm(t, 44, 1, Config{})
	n := nodes[0]
	kp := testKey(t, 45)
	ad := OfferAd{Provider: "isp", DeployServer: "d", Standards: []string{"s/1"}, Supported: map[string]int64{"t": 1}}
	first := NewOfferRecord("pvn", ad, kp, 1)
	for seq := uint64(1); seq <= maxVerified+1; seq++ {
		r := first
		if seq > 1 {
			r = NewOfferRecord("pvn", ad, kp, seq)
		}
		if _, err := n.verifyRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if n.Stats.RecordVerifies != maxVerified+1 || n.Stats.VerifyFlushes != 1 {
		t.Fatalf("%d verifies, %d flushes; want %d and 1", n.Stats.RecordVerifies, n.Stats.VerifyFlushes, maxVerified+1)
	}
	if len(n.verified) != 1 {
		t.Fatalf("memo holds %d entries after the flush, want 1", len(n.verified))
	}
	if _, err := n.verifyRecord(first); err != nil || n.Stats.RecordVerifies != maxVerified+2 {
		t.Fatalf("flushed record: err %v, %d verifies; want a fresh Verify", err, n.Stats.RecordVerifies)
	}
}

// TestStoreKeyCap: a node stores records under at most maxKeys keys.
// The next new key is refused locally and over the wire, and counted;
// keys it already holds still take newer versions.
func TestStoreKeyCap(t *testing.T) {
	net, nodes := newSwarm(t, 46, 2, Config{})
	a, b := nodes[0], nodes[1]
	kp := testKey(t, 47)
	ad := OfferAd{Provider: "isp", DeployServer: "d", Standards: []string{"s/1"}, Supported: map[string]int64{"t": 1}}
	for i := 0; i < maxKeys; i++ {
		if err := b.StoreLocal(NewOfferRecord(fmt.Sprintf("svc-%d", i), ad, kp, 1)); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	if err := b.StoreLocal(NewOfferRecord("svc-local", ad, kp, 1)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("key %d: err %v, want ErrStoreFull", maxKeys, err)
	}

	env := a.envelope(KindStore, 0)
	env.Record = NewOfferRecord("svc-remote", ad, kp, 1)
	env.Target = env.Record.Key
	var reply string
	replied := false
	a.request(b.Self(), env, func(resp inbound) { reply, replied = resp.Err, true }, nil)
	net.Clock.Run()
	if !replied || reply != ErrStoreFull.Error() {
		t.Fatalf("remote store past the cap: replied %t err %q, want %q", replied, reply, ErrStoreFull)
	}
	if b.Stats.KeysRefused != 2 || len(b.records) != maxKeys {
		t.Fatalf("refused %d, holding %d keys; want 2 and %d", b.Stats.KeysRefused, len(b.records), maxKeys)
	}
	if err := b.StoreLocal(NewOfferRecord("svc-0", ad, kp, 2)); err != nil {
		t.Fatalf("newer version under a held key: %v", err)
	}
	if got := b.held(ServiceKey("svc-0")); len(got) != 1 || got[0].Seq != 2 {
		t.Fatal("held key did not take the newer version")
	}
}
