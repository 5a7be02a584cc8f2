package overlay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pvn/internal/pki"
	"pvn/internal/store"
)

// FuzzDecodeEnvelope: the DHT wire decoder parses every byte a hostile
// peer sends. It must never panic, must enforce its bounds, and
// anything it accepts must survive an Encode/Decode round trip.
func FuzzDecodeEnvelope(f *testing.F) {
	kp, err := pki.GenerateKey(pki.NewDeterministicRand(0xfe1))
	if err != nil {
		f.Fatal(err)
	}
	self := IDFromPublicKey(kp.Public)
	from := PeerInfo{ID: self, Addr: "n0", Key: kp.Public}
	seed := &Envelope{Kind: KindFindNode, RPC: 7, From: from, Target: ServiceKey("pvn")}
	f.Add(seed.Encode())
	rec := NewOfferRecord("pvn", OfferAd{Provider: "isp", DeployServer: "d",
		Standards: []string{"match-action"}, Supported: map[string]int64{"tls-verify": 3}}, kp, 1)
	f.Add((&Envelope{Kind: KindStore, RPC: 8, From: from, Record: rec}).Encode())
	f.Add((&Envelope{Kind: KindNodes, RPC: 9, From: from, Peers: []PeerInfo{from},
		Gossip: []RepClaim{{Provider: "isp", Reporter: "dev", Seq: 1, Audits: 4, Violations: 1}}}).Encode())
	f.Add([]byte(`{"kind":"ping"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		if !knownKinds[e.Kind] || !e.From.valid() {
			t.Fatalf("accepted envelope with bad kind/sender: %+v", e)
		}
		if len(e.Peers) > maxPeers || len(e.Records) > maxRecords || len(e.Gossip) > maxGossipClaims {
			t.Fatalf("accepted envelope exceeding bounds: %d peers %d records %d claims",
				len(e.Peers), len(e.Records), len(e.Gossip))
		}
		again, err := DecodeEnvelope(e.Encode())
		if err != nil {
			t.Fatalf("accepted envelope failed re-decode: %v", err)
		}
		if !bytes.Equal(e.Encode(), again.Encode()) {
			t.Fatal("envelope changed across Encode/Decode round trip")
		}
	})
}

// FuzzDecodeRecord: DecodeOfferAd and DecodeModuleRecord parse record
// bodies a replica hands back. The fuzzer fills a record's fields — the
// body as the wire decoder would deliver it, valid JSON — signs it with
// a real key when asked to (so the body parsers run, not only the
// signature check), and keys it the way an honest publisher would.
// Neither decoder may panic, and what they accept must be a record of
// their kind whose binding they promised to check. A node's memoized
// verifyRecord, called twice (the second call can hit the memo), must
// agree with Verify.
func FuzzDecodeRecord(f *testing.F) {
	_, nodes := newSwarm(f, 0xfe3, 1, Config{})
	node := nodes[0]
	kp, err := pki.GenerateKey(pki.NewDeterministicRand(0xfe2))
	if err != nil {
		f.Fatal(err)
	}
	offer := NewOfferRecord("pvn", OfferAd{Provider: "isp", DeployServer: "d",
		Standards: []string{"match-action"}, Supported: map[string]int64{"tls-verify": 3}}, kp, 1)
	f.Add(offer.Kind, offer.Service, offer.Publisher, []byte(offer.Body), true)
	m := &store.Module{Name: "acme/blocker", Version: "1.0", Publisher: "acme",
		Type: "tracker-block", Config: map[string]string{"list": "ads.example"}}
	m.Sign(kp.Private)
	f.Add(RecordModule, "", "acme", m.Encode(), true)
	f.Add(RecordOffer, "pvn", "isp", []byte(`{"provider":"other"}`), true)
	f.Add(RecordModule, "", "acme", m.Encode(), false)
	f.Add("bogus", "pvn", "isp", []byte(`{}`), true)

	f.Fuzz(func(t *testing.T, kind, service, publisher string, body []byte, sign bool) {
		if !json.Valid(body) {
			return // a decoded envelope's body is always valid JSON
		}
		r := &Record{Kind: kind, Key: ServiceKey(service), Service: service, Publisher: publisher,
			PublicKey: kp.Public, Seq: 1, Body: body}
		if mod, err := store.DecodeModule(body); err == nil {
			r.Key = ModuleKey(mod)
		}
		if sign {
			r.Sign(kp.Private)
		}
		want := fmt.Sprint(r.Verify())
		for pass := 0; pass < 2; pass++ {
			if got := fmt.Sprint(node.verifyRecord(r)); got != want {
				t.Fatalf("verifyRecord pass %d = %s, Verify = %s", pass, got, want)
			}
		}
		if ad, err := DecodeOfferAd(r); err == nil {
			if r.Kind != RecordOffer || !sign || ad.Provider != r.Publisher || ServiceKey(r.Service) != r.Key {
				t.Fatalf("accepted offer ad %+v from record kind=%q signed=%t publisher=%q", ad, r.Kind, sign, r.Publisher)
			}
		}
		if mod, err := DecodeModuleRecord(r); err == nil {
			if r.Kind != RecordModule || !sign || ModuleKey(mod) != r.Key {
				t.Fatalf("accepted module %+v from record kind=%q signed=%t", mod, r.Kind, sign)
			}
		}
	})
}
