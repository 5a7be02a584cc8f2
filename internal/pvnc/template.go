package pvnc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pvn/internal/openflow"
)

// Template sharing (ROADMAP item 1, PVN Store refactor): thousands of
// subscribers install the *same* store module, differing only in owner,
// device address and sensors. Lowering is therefore two steps: compile
// the subscriber-independent shape of a PVNC into a skeleton, then
// specialize the skeleton per subscriber. Plain Compile builds a
// skeleton per call; a TemplateCache content-addresses the shape and
// builds it once: matches and cookies are stamped per
// deployment (they embed the device address), while action slices that
// carry no per-deployment state are shared read-only across every
// deployment of the template. Action slices that do embed deployment
// state (middlebox chain namespaces) are copied on specialization —
// copy-on-write at the granularity the dataplane actually mutates.
//
// Shared slices are handed to the switch read-only; the dataplane never
// mutates Actions after install (lookups copy entry pointers, and
// counters live on the entry, not the actions), so sharing is safe.

// Byte model for rule-table memory accounting. The simulator does not
// measure the Go heap (that would be nondeterministic); it prices
// entries and actions with fixed per-struct costs plus string payloads,
// which is what the with/without-sharing comparison needs.
const (
	// EntryOverheadBytes models one FlowEntry: match, priority, cookie,
	// timeouts, counters, slice header.
	EntryOverheadBytes = 160
	// ActionOverheadBytes models one Action struct minus its string
	// payloads.
	ActionOverheadBytes = 64
)

// actionSliceBytes prices one action slice under the byte model.
func actionSliceBytes(acts []openflow.Action) int64 {
	b := int64(0)
	for _, a := range acts {
		b += ActionOverheadBytes + int64(len(a.Chain)+len(a.MeterID)+len(a.Tunnel))
	}
	return b
}

// TemplateKey content-addresses the subscriber-independent shape of a
// PVNC: name, middleboxes, chains and policies — everything Compile
// consumes except the owner, device and sensor addresses. Two users who
// installed the same store module hash to the same key even though
// their sources (and Hash()) differ.
func TemplateKey(p *PVNC) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", p.Name)
	for _, m := range p.Middleboxes {
		fmt.Fprintf(&b, "middlebox %s %s", m.LocalName, m.Type)
		keys := make([]string, 0, len(m.Config))
		for k := range m.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, m.Config[k])
		}
		b.WriteByte('\n')
	}
	for _, c := range p.Chains {
		fmt.Fprintf(&b, "chain %s %s\n", c.Name, strings.Join(c.Members, " "))
	}
	for _, pol := range p.SortedPolicies() {
		fmt.Fprintf(&b, "policy %d any=%t proto=%s sport=%d dport=%d dst=%s/%d hasdst=%t via=%s rate=%g act=%s tun=%s\n",
			pol.Priority, pol.Match.Any, pol.Match.Proto, pol.Match.SrcPort, pol.Match.DstPort,
			pol.Match.Dst, pol.Match.DstBits, pol.Match.HasDst(), pol.Via, pol.RateBps, pol.Action, pol.TunnelName)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// skelPolicy is one policy of a compiled skeleton.
type skelPolicy struct {
	pol     Policy
	meterID string
	// sharedOut/sharedIn are the complete action slices when the policy
	// references no middlebox chain (nothing per-deployment in them);
	// nil when specialization must stamp a namespace.
	sharedOut, sharedIn []openflow.Action
}

// skeleton is one template compiled for one (devicePort, upstreamPort)
// pair — ports are compile inputs (forward terminals), so a cache
// serving hosts with different port layouts keys skeletons per pair.
type skeleton struct {
	policies    []skelPolicy
	meters      []MeterPlan
	middleboxes []Middlebox
	chains      []Chain
	sharedBytes int64 // action bytes in shared slices, counted once
}

// TemplateStats reports cache effectiveness and the rule-table byte
// model with and without sharing.
type TemplateStats struct {
	// Templates is the number of distinct skeletons compiled; Hits is
	// how many CompileShared calls reused one.
	Templates, Hits int
	// Entries counts flow entries emitted across all specializations
	// (identical with and without sharing).
	Entries int64
	// SharedActionBytes is action memory in template-owned slices,
	// counted once per skeleton. PrivateActionBytes is action memory
	// allocated per deployment (namespace-stamped copies).
	// NaiveActionBytes is what per-subscriber Compile would have
	// allocated: one private slice per flow entry.
	SharedActionBytes, PrivateActionBytes, NaiveActionBytes int64
}

// SharedTableBytes models total rule-table memory with template sharing.
func (st TemplateStats) SharedTableBytes() int64 {
	return st.Entries*EntryOverheadBytes + st.SharedActionBytes + st.PrivateActionBytes
}

// NaiveTableBytes models total rule-table memory with per-subscriber
// compilation.
func (st TemplateStats) NaiveTableBytes() int64 {
	return st.Entries*EntryOverheadBytes + st.NaiveActionBytes
}

// TemplateCache compiles PVNC templates once and specializes them per
// subscriber. Safe for concurrent use.
type TemplateCache struct {
	mu        sync.Mutex
	skeletons map[string]*skeleton
	stats     TemplateStats
}

// NewTemplateCache builds an empty cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{skeletons: make(map[string]*skeleton)}
}

// Stats snapshots the cache counters.
func (c *TemplateCache) Stats() TemplateStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CompileShared lowers a PVNC exactly like Compile — the outputs are
// value-equal — but serves the subscriber-independent work from the
// template cache: the skeleton (meter plans, middlebox/chain plans,
// namespace-free action slices) is compiled once per template and
// shared; only matches, cookies and namespace-bearing action slices are
// produced per deployment.
func (c *TemplateCache) CompileShared(p *PVNC, opt CompileOptions) (*Compiled, error) {
	if errs := p.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("pvnc: refusing to compile invalid config: %v", errs[0])
	}
	key := fmt.Sprintf("%s|%d|%d", TemplateKey(p), opt.DevicePort, opt.UpstreamPort)

	c.mu.Lock()
	defer c.mu.Unlock()
	skel, ok := c.skeletons[key]
	if !ok {
		skel = buildSkeleton(p, opt)
		c.skeletons[key] = skel
		c.stats.Templates++
		c.stats.SharedActionBytes += skel.sharedBytes
	} else {
		c.stats.Hits++
	}
	return skel.specialize(p, opt, &c.stats), nil
}

// specialize stamps one deployment of p out of its skeleton. st, when
// non-nil, accumulates the rule-table byte model (the cached path).
func (skel *skeleton) specialize(p *PVNC, opt CompileOptions, st *TemplateStats) *Compiled {
	ns := opt.ChainNamespace
	if ns == "" {
		ns = p.Owner
	}
	out := &Compiled{
		Middleboxes: skel.middleboxes,
		Chains:      skel.chains,
		Owner:       p.Owner,
		Namespace:   ns,
		Hash:        p.Hash(),
	}
	if len(skel.meters) > 0 {
		out.Meters = append([]MeterPlan(nil), skel.meters...)
	}

	// One outbound + one mirrored inbound rule per policy and covered
	// address (the device, plus any sensors the policies also protect).
	// Even the catch-all only covers the deployment's own addresses: a
	// PVN must never interpose on (or forward) other subscribers'
	// traffic (§3.3 isolation).
	covered := p.CoveredAddrs()
	for i := range skel.policies {
		sp := &skel.policies[i]
		outActs, inActs := sp.sharedOut, sp.sharedIn
		if outActs == nil {
			// Copy-on-write: the chain reference embeds this
			// deployment's namespace, so specialize fresh slices — one
			// pair per deployment, reused across its covered addresses.
			base := []openflow.Action{openflow.ToMiddlebox(ns + "/" + sp.pol.Via)}
			if sp.meterID != "" {
				base = append(base, openflow.Metered(sp.meterID))
			}
			tOut, tIn := terminalActions(sp.pol, opt)
			outActs = append(append([]openflow.Action(nil), base...), tOut...)
			inActs = append(append([]openflow.Action(nil), base...), tIn...)
			if st != nil {
				st.PrivateActionBytes += actionSliceBytes(outActs) + actionSliceBytes(inActs)
			}
		}
		for _, addr := range covered {
			var mOut, mIn openflow.Match
			if sp.pol.Match.Any {
				mOut = openflow.Match{Fields: openflow.FieldSrcIP, SrcIP: addr, SrcBits: 32}
				mIn = openflow.Match{Fields: openflow.FieldDstIP, DstIP: addr, DstBits: 32}
			} else {
				mOut = matchFor(sp.pol.Match, addr, true)
				mIn = matchFor(sp.pol.Match, addr, false)
			}
			out.Rules = append(out.Rules,
				openflow.FlowEntry{Priority: sp.pol.Priority, Match: mOut, Actions: outActs, Cookie: opt.Cookie},
				openflow.FlowEntry{Priority: sp.pol.Priority, Match: mIn, Actions: inActs, Cookie: opt.Cookie})
			if st != nil {
				st.Entries += 2
				st.NaiveActionBytes += actionSliceBytes(outActs) + actionSliceBytes(inActs)
			}
		}
	}
	return out
}

// buildSkeleton compiles the subscriber-independent part of a template.
func buildSkeleton(p *PVNC, opt CompileOptions) *skeleton {
	sk := &skeleton{
		middleboxes: append([]Middlebox(nil), p.Middleboxes...),
		chains:      append([]Chain(nil), p.Chains...),
	}
	for _, pol := range p.SortedPolicies() {
		sp := skelPolicy{pol: pol}
		if pol.RateBps > 0 {
			sp.meterID = fmt.Sprintf("%s-p%d", p.Name, pol.Priority)
			sk.meters = append(sk.meters, MeterPlan{ID: sp.meterID, RateBps: pol.RateBps})
		}
		if pol.Via == "" {
			// No chain reference → nothing per-deployment in the action
			// list. Build it once; every deployment's flow entries alias
			// this slice.
			base := []openflow.Action{}
			if sp.meterID != "" {
				base = append(base, openflow.Metered(sp.meterID))
			}
			tOut, tIn := terminalActions(pol, opt)
			sp.sharedOut = append(append([]openflow.Action(nil), base...), tOut...)
			sp.sharedIn = append(append([]openflow.Action(nil), base...), tIn...)
			sk.sharedBytes += actionSliceBytes(sp.sharedOut) + actionSliceBytes(sp.sharedIn)
		}
		sk.policies = append(sk.policies, sp)
	}
	return sk
}
