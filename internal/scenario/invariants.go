package scenario

import (
	"pvn/internal/auditor"
	"pvn/internal/core"
	"pvn/internal/dataplane"
	"pvn/internal/orchestrator"
)

// GlobalInvariants — the properties that must hold at every quiet
// point of any composed storm, however the failures interleave:
//
//  1. invoice-drift   billable == invoiced + forfeited + pendingLive
//  2. lease-leak      deployment book <=> switch/runtime resources
//  3. blackout        max unserved gap <= BlackoutBound
//  4. ledger-complete every roam/failover/corruption left evidence
//  5. drop-accounting Enqueued == Processed + Dropped + QueueDepth
//  6. overlay-tamper  no tampered module manifest ever installed
//  7. placement-book  orchestrator book <=> actual host state (only
//     when a cluster is attached, Engine.AttachCluster)
//
// checkAll runs them between events (strict=false) and at quiesce
// (strict=true, which additionally demands zero pending usage and
// empty deployment books).
func (e *Engine) checkAll(strict bool) {
	e.W.Pipe.Drain()
	e.checkDropAccounting()
	e.checkInvoiceDrift(strict)
	e.checkLeaseLeaks(strict)
	e.checkBlackouts()
	e.checkLedgerComplete()
	e.checkOverlayTamper()
	e.checkPlacement()
}

// AttachCluster folds an orchestrator's placement book into the
// engine's quiet-point invariants: from now on, every check reconciles
// the cluster's book against actual host state in both directions
// (ROADMAP: orchestrator-level invariant in the checker).
func (e *Engine) AttachCluster(c *orchestrator.Cluster) { e.W.Cluster = c }

// checkPlacement audits the attached cluster's placement book — every
// placed chain's deployment live on its booked host with the matching
// cookie, every deployment on a live host owned by a booked chain,
// capacity sums exact, and no parked security chain holding a session
// (fail-open). No cluster attached, nothing to check.
func (e *Engine) checkPlacement() {
	if e.W.Cluster == nil {
		return
	}
	for _, v := range e.W.Cluster.BookViolations() {
		e.violate("placement-book", "%s", v)
	}
}

// checkDropAccounting audits the sharded dataplane's PR 7 invariant on
// every shard and in total, and — since the pipeline runs the Block
// policy — demands zero drops. The pipeline was drained first, so
// queue depths are zero and the counts are exact.
func (e *Engine) checkDropAccounting() {
	st := e.W.Pipe.Stats()
	var total dataplane.ShardStats
	for i, sh := range st.Shards {
		if sh.Enqueued != sh.Processed+sh.Dropped+int64(sh.QueueDepth) {
			e.violate("drop-accounting", "shard %d: enqueued %d != processed %d + dropped %d + depth %d",
				i, sh.Enqueued, sh.Processed, sh.Dropped, sh.QueueDepth)
		}
		if sh.Dropped != 0 {
			e.violate("drop-accounting", "shard %d dropped %d packets under the Block policy", i, sh.Dropped)
		}
		total.Enqueued += sh.Enqueued
		total.Processed += sh.Processed
	}
	if total.Enqueued != e.pumped {
		e.violate("drop-accounting", "pipeline enqueued %d of %d submitted", total.Enqueued, e.pumped)
	}
}

// checkInvoiceDrift audits the money: for every device, each byte a
// flow rule metered is either already invoiced, forfeited to a sweep
// or crash, or still pending on a live deployment. The tariff prices
// traffic at exactly 1 micro/byte, so this is integer equality, not a
// tolerance.
func (e *Engine) checkInvoiceDrift(strict bool) {
	for _, d := range e.W.Devs {
		var pending int64
		for _, s := range d.attachments() {
			if s.Mode != core.ModeInNetwork {
				continue
			}
			dep := s.Network.Server.Deployment(d.id)
			if dep == nil || dep.Cookie != s.Cookie {
				continue // stale attachment: its usage was forfeited
			}
			_, b, ok := s.Network.Server.Usage(d.id)
			if ok {
				pending += b
			}
		}
		if strict && pending != 0 {
			e.violate("invoice-drift", "%s: %d bytes still pending after quiesce teardown", d.id, pending)
		}
		if d.billable != d.invoiced+d.forfeited+pending {
			e.violate("invoice-drift", "%s: billable %d != invoiced %d + forfeited %d + pending %d",
				d.id, d.billable, d.invoiced, d.forfeited, pending)
		}
	}
}

// checkLeaseLeaks audits each network's resources against its
// deployment book in both directions: every switch rule, meter,
// runtime chain and middlebox instance must belong to a booked
// deployment (no orphans — a crash that leaked state must have been
// reclaimed), and every booked resource must still exist (nothing
// torn down behind the book's back). At strict quiesce the book
// itself must be empty.
func (e *Engine) checkLeaseLeaks(strict bool) {
	for _, n := range e.W.Nets {
		srv := n.Server
		ids := srv.DeviceIDs()
		if strict && len(ids) != 0 {
			e.violate("lease-leak", "%s: %d deployments still booked after quiesce: %v", n.Name, len(ids), ids)
		}
		bookCookies := map[uint64]string{}
		bookMeters := map[string]string{}
		bookChains := map[string]string{}
		bookInsts := map[string]string{}
		for _, id := range ids {
			dep := srv.Deployment(id)
			if dep == nil {
				continue
			}
			bookCookies[dep.Cookie] = id
			for _, m := range dep.Meters {
				bookMeters[m] = id
			}
			for _, ch := range dep.Chains {
				bookChains[ch] = id
			}
			for _, inst := range dep.InstanceIDs {
				bookInsts[inst] = id
			}
		}

		ruleCount := map[uint64]int{}
		for _, fe := range srv.Switch.Table.Entries() {
			ruleCount[fe.Cookie]++
			if _, ok := bookCookies[fe.Cookie]; !ok {
				e.violate("lease-leak", "%s: orphan flow rule cookie=%d (no booked deployment)", n.Name, fe.Cookie)
			}
		}
		for c, id := range bookCookies {
			if ruleCount[c] == 0 {
				e.violate("lease-leak", "%s: deployment %s (cookie=%d) has no flow rules installed", n.Name, id, c)
			}
		}
		for _, id := range srv.Switch.Table.MeterIDs() {
			if _, ok := bookMeters[id]; !ok {
				e.violate("lease-leak", "%s: orphan meter %s", n.Name, id)
			}
		}
		for m, id := range bookMeters {
			if _, ok := srv.Switch.Table.Meter(m); !ok {
				e.violate("lease-leak", "%s: deployment %s lost meter %s", n.Name, id, m)
			}
		}
		actualChains := map[string]bool{}
		for _, key := range srv.Runtime.ChainKeys() {
			actualChains[key] = true
			if _, ok := bookChains[key]; !ok {
				e.violate("lease-leak", "%s: orphan chain %s", n.Name, key)
			}
		}
		for ch, id := range bookChains {
			if !actualChains[ch] {
				e.violate("lease-leak", "%s: deployment %s lost chain %s", n.Name, id, ch)
			}
		}
		actualInsts := map[string]bool{}
		for _, inst := range srv.Runtime.InstanceIDs() {
			actualInsts[inst] = true
			if _, ok := bookInsts[inst]; !ok {
				e.violate("lease-leak", "%s: orphan middlebox instance %s", n.Name, inst)
			}
		}
		for inst, id := range bookInsts {
			if !actualInsts[inst] {
				e.violate("lease-leak", "%s: deployment %s lost instance %s", n.Name, id, inst)
			}
		}
	}
}

// checkBlackouts bounds every device's longest unserved gap: detection
// plus repair plus one heartbeat of slack must cover the worst storm
// the composition produced. Reported once per device.
func (e *Engine) checkBlackouts() {
	for _, d := range e.W.Devs {
		gap := d.maxGap
		if d.lastBeat > d.lastServed {
			if g := d.lastBeat - d.lastServed; g > gap {
				gap = g
			}
		}
		if gap > e.cfg.BlackoutBound && !d.blackoutReported {
			d.blackoutReported = true
			e.violate("blackout", "%s unserved for %v (bound %v)", d.id, gap, e.cfg.BlackoutBound)
		}
	}
}

// checkLedgerComplete audits the evidence trail: every successful
// handover left a "roam" redirection, every tunnel failover an
// "endpoint down" redirection, and every detected payload corruption a
// content-modification violation. The ledger is shared, so these are
// exact count equalities.
func (e *Engine) checkLedgerComplete() {
	roamRedirs := int64(0)
	contentMods := int64(0)
	for _, n := range e.W.Nets {
		for _, r := range e.W.Ledger.Redirections(n.Name) {
			if r.Reason == "roam" {
				roamRedirs++
			}
		}
		for _, v := range e.W.Ledger.Violations(n.Name) {
			if v.Kind == auditor.ViolationContentMod {
				contentMods++
			}
		}
	}
	if roamRedirs != e.roams {
		e.violate("ledger-complete", "%d roam redirections recorded for %d completed roams", roamRedirs, e.roams)
	}
	var failovers, failoverRedirs int64
	var corrupts int64
	for _, d := range e.W.Devs {
		corrupts += d.corrupts
		if !d.flap || d.dev.Tunnels == nil {
			continue
		}
		failovers += d.dev.Tunnels.Failovers()
		for _, ep := range []string{"cloud-" + d.id, "home-" + d.id} {
			for _, r := range e.W.Ledger.Redirections(ep) {
				if r.Reason == "endpoint down" {
					failoverRedirs++
				}
			}
		}
	}
	if failovers != failoverRedirs {
		e.violate("ledger-complete", "%d failover redirections recorded for %d tunnel failovers", failoverRedirs, failovers)
	}
	if contentMods != corrupts {
		e.violate("ledger-complete", "%d content-mod violations recorded for %d detected corruptions", contentMods, corrupts)
	}
}

// checkOverlayTamper: signature/content-key re-verification at the
// device must reject every tampered replica — an installed module with
// the campaign's exfiltration marker means the store's verification
// chain has a hole.
func (e *Engine) checkOverlayTamper() {
	if e.evilInstalls > 0 && !e.evilReported {
		e.evilReported = true
		e.violate("overlay-tamper", "%d tampered module manifests were installed (of %d tampered records served)",
			e.evilInstalls, e.tamperServed)
	}
}
