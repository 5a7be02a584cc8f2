package overlay

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pvn/internal/pki"
	"pvn/internal/store"
)

// FuzzDecodeEnvelope: the DHT wire decoder parses every byte a hostile
// peer sends. It must never panic, and it is a differential against
// decodeEnvelopeReference: what it accepts, the reference accepts as
// the same envelope, and Encode gives back the input byte for byte;
// what the reference accepts in the form json.Marshal writes, it
// accepts.
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
	f.Add((&Envelope{Kind: KindStored, RPC: 10, From: PeerInfo{ID: self, Addr: "n\u00e9\"<0>"}, Err: "full\n"}).Encode())
	if golden, err := os.ReadFile(filepath.Join("testdata", "envelope.golden")); err == nil {
		f.Add(golden)
		f.Add(bytes.Replace(golden, []byte(`,"rpc":42`), []byte(` , "rpc" : 42`), 1))
	}
	f.Add([]byte(`{"kind":"ping"}`))
	f.Add([]byte{})
	// Each refusal of the fixed-width readers: IDs that are not 64
	// lower-case hex digits, and keys that are not 44 base64 digits
	// decoding to 32 bytes, as the sender's key and as a record's.
	canon := string((&Envelope{Kind: KindValue, RPC: 11, From: from, Target: ServiceKey("pvn"),
		Records: []*Record{rec}, Peers: []PeerInfo{from}}).Encode())
	target, key := ServiceKey("pvn").String(), base64.StdEncoding.EncodeToString(kp.Public)
	for _, id := range []string{strings.ToUpper(target), target[:63], target + "0"} {
		f.Add([]byte(strings.Replace(canon, target, id, 1)))
	}
	for _, k := range []string{key[:43], key + "A", key[:20] + "\n" + key[21:], key[:20] + `\n` + key[22:],
		base64.StdEncoding.EncodeToString(append(bytes.Clone(kp.Public), 0))} {
		for _, field := range []string{`"key":"`, `"public_key":"`} {
			f.Add([]byte(strings.Replace(canon, field+key, field+k, 1)))
		}
	}
	for _, n := range []int{maxPeers, maxPeers + 1} {
		e := &Envelope{Kind: KindNodes, RPC: 12, From: from}
		for len(e.Peers) < n {
			e.Peers = append(e.Peers, from)
		}
		f.Add(e.Encode())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data)
		ref, refErr := decodeEnvelopeReference(data)
		if err != nil {
			if refErr == nil {
				if canon, _ := json.Marshal(ref); bytes.Equal(canon, data) {
					t.Fatalf("rejected canonical input the reference accepts: %v", err)
				}
			}
			return
		}
		if refErr != nil {
			t.Fatalf("accepted input the reference rejects: %v", refErr)
		}
		if !reflect.DeepEqual(e, ref) {
			t.Fatalf("decoded %+v, reference decoded %+v", e, ref)
		}
		if again := e.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("Encode of an accepted envelope differs from its input:\n got %s\nwant %s", again, data)
		}
	})
}

// FuzzEnvelopeEncode: Encode and Record.signable write exactly the
// bytes json.Marshal writes, for envelopes built from fuzzed fields —
// strings that need escaping or are not UTF-8, nil against empty byte
// slices, bodies with whitespace and HTML characters, negative counts.
// Encode's result has no spare capacity, since payloads outlive it.
func FuzzEnvelopeEncode(f *testing.F) {
	f.Add("value", "n\"1\\", "<isp>&\u2028", "dev\x01\xff", uint64(42), []byte{1, 2, 3}, []byte(` {"a": "<b>", "c": [1, 2]} `), -3, false)
	f.Add("ping", "n0", "isp", "dev-1", uint64(0), []byte{}, []byte(`{"provider":"isp"}`), 0, true)
	f.Add("", "\u00e9", "\x7f\t", "", uint64(1<<63), []byte(nil), []byte(`"x\u2029y"`), 1<<40, false)
	f.Add("store", "a", "b", "c", uint64(7), []byte("k"), []byte(`not json`), -1, true)

	f.Fuzz(func(t *testing.T, kind, addr, name, reporter string, n uint64, raw, body []byte, count int, nilBytes bool) {
		bs := func() []byte {
			if nilBytes {
				return nil
			}
			return append([]byte{}, raw...)
		}
		if !json.Valid(body) {
			body = nil
		}
		rec := &Record{Kind: kind, Key: ServiceKey(name), Service: name, Publisher: reporter,
			PublicKey: bs(), Seq: n, Body: body, Sig: bs()}
		e := &Envelope{
			Kind:    kind,
			RPC:     n,
			From:    PeerInfo{ID: ContentKey(raw), Addr: addr, Key: bs()},
			Target:  ServiceKey(addr),
			Record:  rec,
			Records: []*Record{rec, nil, {Kind: name, Publisher: addr, Body: bs()}},
			Peers:   []PeerInfo{{Addr: name, Key: bs()}, {ID: ServiceKey(reporter), Addr: reporter}},
			Gossip: []RepClaim{{Provider: name, Reporter: reporter, Seq: n,
				Audits: count, Violations: -count, Bypasses: count / 3}},
			Err: reporter,
		}
		if e.Records[2].Body != nil && !json.Valid(e.Records[2].Body) {
			e.Records[2].Body = nil
		}
		if nilBytes {
			e.Record, e.Peers, e.Gossip = nil, []PeerInfo{}, nil
		}
		got := e.Encode()
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("Encode returned cap %d for len %d", cap(got), len(got))
		}
		for _, r := range e.Records {
			if r == nil {
				continue
			}
			clone := *r
			clone.Sig = nil
			want, err := json.Marshal(&clone)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.signable(); !bytes.Equal(got, want) {
				t.Fatalf("signable differs from json.Marshal of the unsigned copy:\n got %s\nwant %s", got, want)
			}
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
			v, err := node.verifyRecord(r)
			if got := fmt.Sprint(err); got != want || (err == nil) != (v.r == r) {
				t.Fatalf("verifyRecord pass %d = %s vouching for %p, Verify = %s", pass, got, v.r, want)
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
