package discovery

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzDiscoveryDatagram: ServeUDP and DiscoverUDP parse every datagram
// a hostile network sends. Neither decoder may panic; every DM that
// decodeDM accepts is answered through ProviderPolicy.HandleDM, and any
// offer that comes back must be well-formed: it answers that DM, quotes
// only required types the provider hosts at the provider's prices, sums
// them, expires after now, and survives the device's decodeOffer.
func FuzzDiscoveryDatagram(f *testing.F) {
	n := NewNegotiator("dev1", testConfig(f), 1000, StrategyStrict)
	dm, err := json.Marshal(n.MakeDM())
	if err != nil {
		f.Fatal(err)
	}
	offer, err := json.Marshal(fullProvider().HandleDM(n.MakeDM(), 0))
	if err != nil {
		f.Fatal(err)
	}
	dup, err := json.Marshal(&DM{DeviceID: "d", Standards: []string{StandardMatchAction},
		RequiredTypes: []string{"tls-verify", "tls-verify", "unhosted"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dm)
	f.Add(offer)
	f.Add(dup)
	f.Add([]byte(`{"device_id":""}`))
	f.Add([]byte(`{"offer_id":"o","price_per_module":{"a":-1}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	const now = 5 * time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		if o, err := decodeOffer(data); err == nil && o.OfferID == "" {
			t.Fatal("decodeOffer accepted an offer without an ID")
		}
		dm, err := decodeDM(data)
		if err != nil {
			return
		}
		if dm.DeviceID == "" {
			t.Fatal("decodeDM accepted a DM without a device ID")
		}
		policy := fullProvider()
		o := policy.HandleDM(dm, now)
		if o == nil {
			return
		}
		if o.OfferID == "" || o.Provider != policy.Provider || o.DMSeq != dm.Seq || o.ExpiresAt <= now {
			t.Fatalf("malformed offer %+v for DM %+v", o, dm)
		}
		required := map[string]bool{}
		for _, rt := range dm.RequiredTypes {
			required[rt] = true
		}
		var total int64
		for _, st := range o.SupportedTypes {
			price, hosted := policy.Supported[st]
			if !required[st] || !hosted || o.PricePerModule[st] != price {
				t.Fatalf("offer quotes %q (required %t, hosted %t, price %d of %d)", st, required[st], hosted, o.PricePerModule[st], price)
			}
			total += price
		}
		if o.TotalCost != total {
			t.Fatalf("offer total %d, supported types sum to %d", o.TotalCost, total)
		}
		wire, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeOffer(wire); err != nil {
			t.Fatalf("device rejects the provider's offer: %v", err)
		}
	})
}
