package overlay

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
}
