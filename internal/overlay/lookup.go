package overlay

import (
	"slices"
	"sort"
)

// Iterative lookup, the heart of Kademlia. The implementation is
// round-based rather than free-running: each round queries the alpha
// closest unqueried candidates and waits for all of them to answer or
// time out before advancing. Rounds therefore equal the hop depth of
// the lookup — the quantity the paper-scale experiment bounds by
// O(log n) — and the strict barrier keeps event order deterministic
// under netsim.

// LookupResult reports one finished lookup.
type LookupResult struct {
	// Target is the looked-up ID.
	Target ID
	// Closest is the final shortlist, nearest first.
	Closest []Peer
	// Rounds is how many query rounds ran — the hop depth.
	Rounds int
	// RPCs is how many requests the lookup issued.
	RPCs int
	// Timeouts is how many of those expired unanswered.
	Timeouts int
	// Records holds every record collected under the target key
	// (find-value lookups only), deterministic publisher order.
	Records []*Record
	// Found is true when at least one record came back.
	Found bool
}

// lkEntry is one candidate in the lookup shortlist.
type lkEntry struct {
	peer      Peer
	queried   bool
	responded bool
}

// lookup drives one iterative search to completion.
type lookup struct {
	n         *Node
	target    ID
	findValue bool
	// shortlist holds the candidates nearest-first, each ID once.
	shortlist []*lkEntry
	inFlight  int
	res       LookupResult
	records   map[string]verified // publisher -> highest-Seq record under target
	done      func(LookupResult)
	finished  bool
}

// Lookup runs an iterative find-node toward target, reporting the
// closest peers found. done may be nil.
func (n *Node) Lookup(target ID, done func(LookupResult)) {
	n.startLookup(target, false, done)
}

// Get runs an iterative find-value: like Lookup, but responders
// holding records under the key return them and the result carries
// the merged set (highest Seq per publisher). Replicas are untrusted:
// every returned record is signature-verified before it may enter the
// merge (a forgery must not displace an honest record), and callers
// still re-check content bindings via DecodeOfferAd /
// DecodeModuleRecord.
func (n *Node) Get(key ID, done func(LookupResult)) {
	n.startLookup(key, true, done)
}

// Put publishes a record: an iterative lookup finds the Replicate
// closest live nodes, then each receives a store RPC. done (optional)
// receives the number of replicas that acknowledged without error.
func (n *Node) Put(r *Record, done func(acks int)) {
	n.Lookup(r.Key, func(res LookupResult) {
		targets := res.Closest
		if len(targets) > n.cfg.Replicate {
			targets = targets[:n.cfg.Replicate]
		}
		if len(targets) == 0 {
			if done != nil {
				done(0)
			}
			return
		}
		acks, left := 0, len(targets)
		finish := func() {
			left--
			if left == 0 && done != nil {
				done(acks)
			}
		}
		for _, t := range targets {
			if t.ID == n.self.ID {
				// We are one of the closest: store locally.
				if n.StoreLocal(r) == nil {
					acks++
				}
				finish()
				continue
			}
			env := n.envelope(KindStore, 0)
			env.Record = r
			env.Target = r.Key
			n.request(t, env,
				func(resp inbound) {
					if resp.Err == "" {
						acks++
					}
					finish()
				},
				finish)
		}
	})
}

func (n *Node) startLookup(target ID, findValue bool, done func(LookupResult)) {
	lk := &lookup{
		n:         n,
		target:    target,
		findValue: findValue,
		records:   make(map[string]verified),
		done:      done,
		res:       LookupResult{Target: target},
	}
	var scratch [closestScratch]*contact
	cs := n.table.closest(target, bucketSize, scratch[:0])
	entries := make([]lkEntry, len(cs)+1)
	lk.shortlist = make([]*lkEntry, len(cs), len(cs)+1)
	for i, c := range cs {
		entries[i].peer = c.peer
		lk.shortlist[i] = &entries[i]
	}
	// We always count as a responded candidate for our own ID space
	// position: a lookup on a one-node network terminates immediately.
	self := &entries[len(cs)]
	*self = lkEntry{peer: n.self, queried: true, responded: true}
	lk.insert(self)
	lk.round()
}

// insert puts a candidate not yet listed at its place in the shortlist.
func (lk *lookup) insert(e *lkEntry) {
	i, _ := lk.find(e.peer.ID)
	lk.shortlist = slices.Insert(lk.shortlist, i, e)
}

// find returns where id sits in the shortlist, or would go, and
// whether it is there.
func (lk *lookup) find(id ID) (int, bool) {
	return slices.BinarySearchFunc(lk.shortlist, id, func(e *lkEntry, id ID) int {
		return distanceCmp(e.peer.ID, id, lk.target)
	})
}

// round queries the alpha closest unqueried candidates within the k
// nearest. When none remain, the lookup has converged.
func (lk *lookup) round() {
	if lk.finished {
		return
	}
	var batch [lookupAlpha]*lkEntry
	nb := 0
	for _, e := range lk.shortlist[:min(len(lk.shortlist), bucketSize)] {
		if !e.queried {
			batch[nb] = e
			if nb++; nb == lookupAlpha {
				break
			}
		}
	}
	if nb == 0 {
		lk.finish()
		return
	}
	lk.res.Rounds++
	for _, e := range batch[:nb] {
		e.queried = true
		lk.inFlight++
		lk.res.RPCs++
		kind := KindFindNode
		if lk.findValue {
			kind = KindFindValue
		}
		env := lk.n.envelope(kind, 0)
		env.Target = lk.target
		entry := e
		lk.n.request(e.peer, env,
			func(resp inbound) { lk.onReply(entry, resp) },
			func() { lk.onTimeout(entry) })
	}
}

func (lk *lookup) onReply(e *lkEntry, resp inbound) {
	e.responded = true
	// DecodeEnvelope checked each entry's key binding, so a new one
	// joins the shortlist without a second hash.
	for i, pi := range resp.Peers {
		if _, known := lk.find(pi.ID); !known {
			lk.insert(&lkEntry{peer: resp.peer(i)})
		}
	}
	if lk.findValue && resp.Kind == KindValue {
		for _, r := range resp.Records {
			// Verify before the record enters the merge. Without this
			// a malicious replica could answer with a forged record
			// carrying an inflated Seq under an honest publisher's
			// name: the forgery would displace the honest, verifiable
			// record from the highest-Seq-per-publisher merge, and the
			// caller's later verification would reject it — the
			// honest record lost to a fake the replica knew was junk.
			// Every replica returns the same records, so past the first
			// reply this is a memo hit.
			v, err := lk.n.verifyRecord(r)
			if err != nil {
				lk.n.Stats.BadRecords++
				continue
			}
			if old, ok := lk.records[r.Publisher]; !ok || r.Seq > old.r.Seq {
				lk.records[r.Publisher] = v
			}
		}
	}
	lk.advance()
}

func (lk *lookup) onTimeout(e *lkEntry) {
	lk.res.Timeouts++
	// The contact already took a strike in Node.request; drop it from
	// the shortlist so convergence does not wait on the dead.
	if i, ok := lk.find(e.peer.ID); ok {
		lk.shortlist = slices.Delete(lk.shortlist, i, i+1)
	}
	lk.advance()
}

// advance runs the next round once the current one has fully settled
// (strict barrier: rounds equal hops).
func (lk *lookup) advance() {
	lk.inFlight--
	if lk.inFlight == 0 {
		lk.round()
	}
}

func (lk *lookup) finish() {
	if lk.finished {
		return
	}
	lk.finished = true
	var closest []Peer
	for _, e := range lk.shortlist {
		if e.responded {
			closest = append(closest, e.peer)
			if len(closest) == bucketSize {
				break
			}
		}
	}
	lk.res.Closest = closest
	if len(lk.records) > 0 {
		pubs := make([]string, 0, len(lk.records))
		for p := range lk.records {
			pubs = append(pubs, p)
		}
		sort.Strings(pubs)
		for _, p := range pubs {
			lk.res.Records = append(lk.res.Records, lk.records[p].r)
		}
		lk.res.Found = true
	}
	if lk.done != nil {
		lk.done(lk.res)
	}
}
