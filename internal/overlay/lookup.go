package overlay

import "sort"

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
	entries   map[ID]*lkEntry
	inFlight  int
	res       LookupResult
	records   map[string]*Record // publisher -> highest-Seq record under target
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
				func(resp *Envelope) {
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
		entries:   make(map[ID]*lkEntry),
		records:   make(map[string]*Record),
		done:      done,
		res:       LookupResult{Target: target},
	}
	for _, p := range n.table.Closest(target, bucketSize) {
		lk.entries[p.ID] = &lkEntry{peer: p}
	}
	// We always count as a responded candidate for our own ID space
	// position: a lookup on a one-node network terminates immediately.
	lk.entries[n.self.ID] = &lkEntry{peer: n.self, queried: true, responded: true}
	lk.round()
}

// sorted returns all candidates nearest-first.
func (lk *lookup) sorted() []*lkEntry {
	out := make([]*lkEntry, 0, len(lk.entries))
	for _, e := range lk.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return DistanceLess(out[i].peer.ID, out[j].peer.ID, lk.target)
	})
	return out
}

// round queries the alpha closest unqueried candidates within the k
// nearest. When none remain, the lookup has converged.
func (lk *lookup) round() {
	if lk.finished {
		return
	}
	candidates := lk.sorted()
	if len(candidates) > bucketSize {
		candidates = candidates[:bucketSize]
	}
	var batch []*lkEntry
	for _, e := range candidates {
		if !e.queried {
			batch = append(batch, e)
			if len(batch) == lookupAlpha {
				break
			}
		}
	}
	if len(batch) == 0 {
		lk.finish()
		return
	}
	lk.res.Rounds++
	for _, e := range batch {
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
			func(resp *Envelope) { lk.onReply(entry, resp) },
			func() { lk.onTimeout(entry) })
	}
}

func (lk *lookup) onReply(e *lkEntry, resp *Envelope) {
	e.responded = true
	for _, pi := range resp.Peers {
		// DecodeEnvelope bounds-checked these, but re-check the key
		// binding here: shortlist entries drive who we talk to next.
		if !pi.valid() {
			continue
		}
		if _, known := lk.entries[pi.ID]; !known {
			lk.entries[pi.ID] = &lkEntry{peer: pi.Peer()}
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
			if err := lk.n.verifyRecord(r); err != nil {
				lk.n.Stats.BadRecords++
				continue
			}
			if old, ok := lk.records[r.Publisher]; !ok || r.Seq > old.Seq {
				lk.records[r.Publisher] = r
			}
		}
	}
	lk.advance()
}

func (lk *lookup) onTimeout(e *lkEntry) {
	lk.res.Timeouts++
	// The contact already took a strike in Node.request; drop it from
	// the shortlist so convergence does not wait on the dead.
	delete(lk.entries, e.peer.ID)
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
	for _, e := range lk.sorted() {
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
			lk.res.Records = append(lk.res.Records, lk.records[p])
		}
		lk.res.Found = true
	}
	if lk.done != nil {
		lk.done(lk.res)
	}
}
