package overlay

import (
	"pvn/internal/discovery"
)

// OfferSource adapts a DHT node into a discovery.Session overlay
// query: on each DM it fetches the signed offer advertisements
// published under the session's service key, verifies them, filters
// by gossiped reputation and delivers synthesized offers in rank
// order (best reputation first, then price). Wire it to
// Session.OverlayQuery; the UDP/broadcast path keeps running beside
// it and the negotiator merges both offer streams.
type OfferSource struct {
	// Node is the device's overlay participant.
	Node *Node
	// Service is the rendezvous name providers advertise under.
	Service string
	// MinScore drops providers whose gossiped reputation falls below
	// it (0 keeps everyone — the negotiator still sees the ranking
	// through delivery order).
	MinScore float64

	// Counters for experiments.
	AdsSeen      int // verified advertisements fetched
	AdsRejected  int // records that failed verification
	AdsFiltered  int // ads dropped by MinScore
	LookupRounds int // hop depth of the last fetch
}

// Query implements the Session.OverlayQuery contract.
func (os *OfferSource) Query(dm *discovery.DM, deliver func(*discovery.Offer)) {
	key := ServiceKey(os.Service)
	os.Node.Get(key, func(res LookupResult) {
		os.LookupRounds = res.Rounds
		var offers []*discovery.Offer
		// The lookup merge verified these on this node already, so the
		// memo answers without a second Ed25519 check.
		verify := func(r *Record) error { _, err := os.Node.verifyRecord(r); return err }
		for _, rec := range res.Records {
			ad, err := decodeOfferAd(rec, verify)
			if err != nil {
				os.AdsRejected++
				continue
			}
			os.AdsSeen++
			if os.MinScore > 0 {
				if score, _ := os.Node.Rep().Score(ad.Provider); score < os.MinScore {
					os.AdsFiltered++
					continue
				}
			}
			if o := ad.ToOffer(rec, dm, os.Node.clock.Now()); o != nil {
				offers = append(offers, o)
			}
		}
		for _, o := range RankOffers(offers, os.Node.Rep()) {
			deliver(o)
		}
	})
}
