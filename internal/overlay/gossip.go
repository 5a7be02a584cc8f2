package overlay

import (
	"sort"

	"pvn/internal/auditor"
	"pvn/internal/discovery"
)

// Reputation gossip. Devices audit the providers they attach to
// (internal/auditor) and fold the tallies into signed-envelope claims
// that ride on every DHT message (anti-entropy piggybacking): there is
// no extra gossip round trip, reputation spreads exactly as fast as
// overlay traffic does. A device that has never met a provider can
// therefore rank it — the paper's "observed violations … inform
// reputations for PVN providers" (§3.1) without a central ledger.

// RepClaim is one reporter's running tally against one provider. A
// claim is a CRDT-style register: Seq orders a reporter's successive
// tallies and the merge keeps the highest, so claims can arrive in any
// order, any number of times, over any path and every store converges
// to the same state.
type RepClaim struct {
	// Provider is the audited provider's name.
	Provider string `json:"provider"`
	// Reporter names the auditing device; claims are tracked per
	// (provider, reporter) so one loud reporter cannot outvote the rest
	// by repetition.
	Reporter string `json:"reporter"`
	// Seq orders this reporter's tallies; higher supersedes.
	Seq uint64 `json:"seq"`
	// Audits is how many audit passes the reporter ran.
	Audits int `json:"audits"`
	// Violations counts detected policy violations (all kinds).
	Violations int `json:"violations"`
	// Bypasses counts the security-bypass subset separately: traffic
	// that crossed the PVN unprocessed is the worst offence a provider
	// can commit and rankings may want to see it explicitly.
	Bypasses int `json:"bypasses"`
}

// wellFormed bounds-checks a claim off the wire.
func (c RepClaim) wellFormed() bool {
	if c.Provider == "" || len(c.Provider) > maxNameBytes {
		return false
	}
	if c.Reporter == "" || len(c.Reporter) > maxNameBytes {
		return false
	}
	return c.Audits >= 0 && c.Violations >= 0 && c.Bypasses >= 0 && c.Bypasses <= c.Violations
}

// score is the claim's own quality estimate in [0,1]: each
// violation-bearing audit drags it down, mirroring
// auditor.Ledger.Reputation.
func (c RepClaim) score() float64 {
	if c.Audits == 0 {
		return 1
	}
	s := 1 - float64(c.Violations)/float64(c.Audits)
	if s < 0 {
		return 0
	}
	return s
}

// RepStore is a node's merged view of every claim it has heard,
// keyed by (provider, reporter).
type RepStore struct {
	claims map[string]map[string]RepClaim // provider -> reporter -> claim
	// cursor rotates Sample through the claim set so successive
	// envelopes spread different claims instead of the same prefix.
	cursor int
}

// NewRepStore builds an empty store.
func NewRepStore() *RepStore {
	return &RepStore{claims: make(map[string]map[string]RepClaim)}
}

// Merge folds incoming claims in, keeping the highest Seq per
// (provider, reporter). It returns how many claims changed state —
// the anti-entropy "delta", zero when both sides already agree.
// Claims are unsigned by design, so every envelope's gossip merges
// unverified: Merge drops malformed and stale claims, and Score gives
// each reporter one vote (TestRepStoreMergeAndScore).
func (rs *RepStore) Merge(claims []RepClaim) int {
	changed := 0
	for _, c := range claims {
		if !c.wellFormed() {
			continue
		}
		byReporter := rs.claims[c.Provider]
		if byReporter == nil {
			byReporter = make(map[string]RepClaim)
			rs.claims[c.Provider] = byReporter
		}
		old, ok := byReporter[c.Reporter]
		if ok && old.Seq >= c.Seq {
			continue
		}
		byReporter[c.Reporter] = c
		changed++
	}
	return changed
}

// Score aggregates all reporters' claims against a provider into one
// number in [0,1]: the mean of per-reporter scores, so each reporter
// gets one vote regardless of how often its claim was gossiped. ok is
// false when the store has never heard of the provider.
func (rs *RepStore) Score(provider string) (float64, bool) {
	byReporter := rs.claims[provider]
	if len(byReporter) == 0 {
		return 1, false
	}
	var sum float64
	for _, c := range byReporter {
		sum += c.score()
	}
	return sum / float64(len(byReporter)), true
}

// Claims returns every merged claim in deterministic order (provider,
// then reporter).
func (rs *RepStore) Claims() []RepClaim {
	var out []RepClaim
	for _, byReporter := range rs.claims {
		for _, c := range byReporter {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Provider != out[j].Provider {
			return out[i].Provider < out[j].Provider
		}
		return out[i].Reporter < out[j].Reporter
	})
	return out
}

// Len returns the number of merged (provider, reporter) claims.
func (rs *RepStore) Len() int {
	n := 0
	for _, byReporter := range rs.claims {
		n += len(byReporter)
	}
	return n
}

// Sample returns up to n claims to piggyback on an outgoing envelope,
// rotating a cursor through the deterministic claim order so repeated
// envelopes cover the whole set rather than re-sending a fixed prefix.
func (rs *RepStore) Sample(n int) []RepClaim {
	all := rs.Claims()
	if len(all) == 0 || n <= 0 {
		return nil
	}
	if n > len(all) {
		n = len(all)
	}
	out := make([]RepClaim, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[(rs.cursor+i)%len(all)])
	}
	rs.cursor = (rs.cursor + n) % len(all)
	return out
}

// FoldLedger converts a device's local audit ledger into fresh claims
// under the given reporter name, stamped with seq (callers advance it
// per fold so remote stores supersede older tallies).
func FoldLedger(reporter string, l *auditor.Ledger, seq uint64) []RepClaim {
	var out []RepClaim
	for _, p := range l.Providers() {
		vs := l.Violations(p)
		bypasses := 0
		for _, v := range vs {
			if v.Kind == auditor.ViolationSecurityBypass {
				bypasses++
			}
		}
		out = append(out, RepClaim{
			Provider:   p,
			Reporter:   reporter,
			Seq:        seq,
			Audits:     l.AuditCount(p),
			Violations: len(vs),
			Bypasses:   bypasses,
		})
	}
	return out
}

// RankOffers orders offers best-first for a reputation-aware device:
// higher gossiped score wins, then lower cost, then provider name.
// Providers the store has never heard of score 1 (no evidence either
// way, matching auditor.Ledger) — so a never-seen-but-gossiped-bad
// provider ranks below both honest and unknown ones.
func RankOffers(offers []*discovery.Offer, rs *RepStore) []*discovery.Offer {
	out := append([]*discovery.Offer(nil), offers...)
	score := func(o *discovery.Offer) float64 {
		s, _ := rs.Score(o.Provider)
		return s
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i]), score(out[j])
		if si != sj {
			return si > sj
		}
		if out[i].TotalCost != out[j].TotalCost {
			return out[i].TotalCost < out[j].TotalCost
		}
		return out[i].Provider < out[j].Provider
	})
	return out
}
