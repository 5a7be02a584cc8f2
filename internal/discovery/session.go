package discovery

import (
	"fmt"
	"time"

	"pvn/internal/pvnc"
)

// This file implements the device-side discovery/deployment lifecycle as
// a fault-tolerant state machine (§3.3 "coping with unavailability").
// The plain Negotiator assumes a lossless, single-shot exchange; Session
// drives the same MakeDM→Evaluate→Deploy pipeline under deadlines,
// capped exponential backoff with jitter, seq-based duplicate
// suppression, one CounterDM renegotiation round, and a terminal
// fallback signal telling the caller to tunnel out (Fig 1c) when the
// access network never yields a deployment.
//
// Session is transport- and clock-agnostic: netsim experiments drive it
// on the simulated clock through fault injectors, and a real daemon
// could drive it on wall-clock timers.

// SessionClock is the timer surface a Session needs. netsim.Clock
// satisfies it.
type SessionClock interface {
	Now() time.Duration
	Schedule(d time.Duration, fn func())
}

// Backoff computes exponential retry delays with optional jitter: each
// retry doubles the delay, and no delay, jitter included, exceeds
// backoffMax.
type Backoff struct {
	// Initial is the delay before the first retry. Zero means 100ms.
	Initial time.Duration
	// Jitter in [0,1] spreads each delay uniformly over
	// [d*(1-Jitter), d*(1+Jitter)], desynchronizing device herds after
	// a provider restart. Zero disables jitter.
	Jitter float64
}

// backoffMax caps every Backoff delay.
const backoffMax = 5 * time.Second

// Delay returns the delay before retry number retry (0-based), drawing
// jitter from rand (a [0,1) source; nil means no jitter).
func (b Backoff) Delay(retry int, rand func() float64) time.Duration {
	d := float64(b.Initial)
	if b.Initial <= 0 {
		d = float64(100 * time.Millisecond)
	}
	for i := 0; i < retry && d < float64(backoffMax); i++ {
		d *= 2
	}
	d = min(d, float64(backoffMax))
	if b.Jitter > 0 && rand != nil {
		d *= 1 - b.Jitter + 2*b.Jitter*rand()
	}
	return time.Duration(min(d, float64(backoffMax)))
}

// How long each DM attempt collects offers before the negotiator picks,
// how long each wait for a DeployResponse lasts before the request is
// retransmitted, and how many retransmissions of one DeployRequest
// precede a fresh discovery round.
const (
	offerWindow   = 500 * time.Millisecond
	deployWait    = time.Second
	deployRetries = 3
)

// SessionConfig tunes the lifecycle state machine. The offer window
// (500ms), the deploy wait (1s) and the deploy retransmission budget (3)
// are the same for every session.
type SessionConfig struct {
	// MaxAttempts caps DM attempts (including the first). Zero means 8.
	MaxAttempts int
	// Deadline bounds the whole session from Start; when it passes the
	// session finishes with Fallback set. Zero means 30s.
	Deadline time.Duration
	// Backoff spaces DM retries.
	Backoff Backoff
	// Renegotiate enables one CounterDM round quoting the supported
	// subset when no full offer is acceptable (§3.1).
	Renegotiate bool
	// Rand supplies jitter draws in [0,1); nil disables jitter. Feed it
	// a seeded netsim.RNG for reproducible schedules.
	Rand func() float64
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	return c
}

// SessionResult is the terminal outcome of one lifecycle run.
type SessionResult struct {
	// Deployed is true when the provider ACKed a deployment.
	Deployed bool
	// Fallback is true when the session exhausted its deadline or
	// attempts without a deployment: the caller should tunnel out to a
	// trusted PVN location (or run bare).
	Fallback bool
	// Reason explains a fallback.
	Reason string
	// Offer/Decision/Response record the accepted negotiation.
	Offer    *Offer
	Decision Decision
	Response *DeployResponse
	// Elapsed is time from Start to the terminal event —
	// time-to-connectivity when combined with the fallback path.
	Elapsed time.Duration

	// Robustness counters.
	Attempts     int // DMs sent (including CounterDM rounds)
	Retries      int // backoff retries + deploy retransmissions
	StaleOffers  int // offers answering an earlier DM seq
	DupOffers    int // duplicate offer IDs within one window
	DupResponses int // DeployResponses outside a deploy wait
	Renegotiated bool
	DeployNACKs  int
	OffersSeen   int
}

type sessionState int

const (
	sessionIdle sessionState = iota
	sessionDiscovering
	sessionDeploying
	sessionDone
)

// Session drives one device's discovery→deploy lifecycle. Wire Send to
// the transport (it receives *DM and *DeployRequest values), feed
// arriving messages to HandleOffer/HandleDeployResponse, and the
// terminal SessionResult arrives via Done exactly once. Session is not
// goroutine-safe: drive it from one event loop (netsim's clock is one).
type Session struct {
	Neg    *Negotiator
	Clock  SessionClock
	Send   func(msg interface{})
	Done   func(SessionResult)
	Config SessionConfig

	// OverlayQuery, when set, is consulted on every DM attempt beside
	// the broadcast transport: it receives the DM and a delivery
	// callback that feeds synthesized offers into the session exactly
	// like offers arriving off the wire (same stale-seq and duplicate
	// suppression). The decentralized discovery overlay plugs in here;
	// the broadcast path keeps working unchanged as the fallback.
	OverlayQuery func(dm *DM, deliver func(*Offer))

	cfg     SessionConfig
	state   sessionState
	started time.Duration

	// Discovery state.
	curSeq     uint64
	offers     []*Offer
	seenOffers map[string]bool
	timerGen   int

	// Renegotiation state: evalNeg evaluates offers (it switches to a
	// strict negotiator over the reduced config after a CounterDM).
	evalNeg *Negotiator

	// Deploy state.
	pendingReq   *DeployRequest
	pendingOffer *Offer
	pendingDec   Decision
	deploySends  int

	result SessionResult
}

// Start begins the lifecycle at the clock's current instant.
func (s *Session) Start() {
	if s.state != sessionIdle {
		return
	}
	s.cfg = s.Config.withDefaults()
	s.evalNeg = s.Neg
	s.started = s.Clock.Now()
	s.Clock.Schedule(s.cfg.Deadline, func() {
		if s.state != sessionDone {
			s.finishFallback("deadline exceeded")
		}
	})
	s.sendDM(s.Neg.MakeDM())
}

// sendDM transmits dm and opens a fresh offer-collection window.
func (s *Session) sendDM(dm *DM) {
	s.state = sessionDiscovering
	s.curSeq = dm.Seq
	s.offers = nil
	s.seenOffers = make(map[string]bool)
	s.result.Attempts++
	s.timerGen++
	gen := s.timerGen
	s.Send(dm)
	if s.OverlayQuery != nil {
		s.OverlayQuery(dm, s.HandleOffer)
	}
	s.Clock.Schedule(offerWindow, func() { s.closeOfferWindow(gen) })
}

// HandleOffer feeds one arriving offer into the state machine. Offers
// answering an earlier DM seq are stale retransmissions and dropped;
// duplicate offer IDs within a window are counted and dropped.
func (s *Session) HandleOffer(o *Offer) {
	if s.state != sessionDiscovering || o == nil {
		return
	}
	if o.DMSeq != s.curSeq {
		s.result.StaleOffers++
		return
	}
	if s.seenOffers[o.OfferID] {
		s.result.DupOffers++
		return
	}
	s.seenOffers[o.OfferID] = true
	s.offers = append(s.offers, o)
	s.result.OffersSeen++
}

// closeOfferWindow picks the best offer (or schedules a retry) when the
// collection window for DM generation gen ends.
func (s *Session) closeOfferWindow(gen int) {
	if s.state != sessionDiscovering || gen != s.timerGen {
		return
	}
	now := s.Clock.Now()
	if offer, dec, ok := s.evalNeg.BestOffer(s.offers, now); ok {
		s.startDeploy(offer, dec)
		return
	}
	if len(s.offers) == 0 {
		s.retryDiscovery("no offers")
		return
	}
	// Offers arrived but none is acceptable. Try one CounterDM round
	// quoting the supported subset before backing off.
	if s.cfg.Renegotiate && !s.result.Renegotiated {
		if dm, reduced, ok := s.counterDM(); ok {
			s.result.Renegotiated = true
			s.evalNeg = NewNegotiator(s.Neg.DeviceID, reduced, s.Neg.BudgetMicro, StrategyStrict)
			s.sendDM(dm)
			return
		}
	}
	s.retryDiscovery("no acceptable offer")
}

// counterDM picks the offer covering the most types and builds the
// subset re-quote from the original negotiator (so DM seqs keep
// advancing on one counter).
func (s *Session) counterDM() (*DM, *pvnc.PVNC, bool) {
	var best *Offer
	for _, o := range s.offers {
		if best == nil || len(o.SupportedTypes) > len(best.SupportedTypes) {
			best = o
		}
	}
	return s.Neg.CounterDM(best)
}

// retryDiscovery backs off and sends the next DM, or gives up when the
// attempt budget or deadline is spent.
func (s *Session) retryDiscovery(why string) {
	if s.result.Attempts >= s.cfg.MaxAttempts {
		s.finishFallback(fmt.Sprintf("%s after %d attempts", why, s.result.Attempts))
		return
	}
	delay := s.cfg.Backoff.Delay(s.result.Retries, s.cfg.Rand)
	if s.Clock.Now()+delay-s.started >= s.cfg.Deadline {
		s.finishFallback(why + " and deadline would pass during backoff")
		return
	}
	s.result.Retries++
	s.timerGen++
	gen := s.timerGen
	s.Clock.Schedule(delay, func() {
		if s.state != sessionDiscovering || gen != s.timerGen {
			return
		}
		// Renegotiation is per-attempt: a fresh round quotes the full
		// config again (the provider mix may have changed).
		s.evalNeg = s.Neg
		s.sendDM(s.Neg.MakeDM())
	})
}

// startDeploy sends the deployment request and arms its retransmission
// timer.
func (s *Session) startDeploy(offer *Offer, dec Decision) {
	s.state = sessionDeploying
	s.pendingOffer = offer
	s.pendingDec = dec
	s.pendingReq = s.evalNeg.BuildDeployRequest(offer, dec)
	s.deploySends = 0
	s.transmitDeploy()
}

func (s *Session) transmitDeploy() {
	s.deploySends++
	s.timerGen++
	gen := s.timerGen
	s.Send(s.pendingReq)
	s.Clock.Schedule(deployWait, func() { s.deployTimeout(gen) })
}

// deployTimeout retransmits the request (the server ACKs duplicates
// idempotently) or abandons the offer for a fresh discovery round.
func (s *Session) deployTimeout(gen int) {
	if s.state != sessionDeploying || gen != s.timerGen {
		return
	}
	if s.deploySends <= deployRetries {
		s.result.Retries++
		s.transmitDeploy()
		return
	}
	// Retransmission budget spent: abandon the offer and re-discover.
	// The state must leave sessionDeploying here (as on the NACK path)
	// or the retry callback scheduled by retryDiscovery would no-op.
	s.state = sessionDiscovering
	s.retryDiscovery("deploy unacknowledged")
}

// HandleDeployResponse feeds one arriving deploy ACK/NACK into the state
// machine. Responses outside a deploy wait (duplicates, or answers to an
// abandoned request) are counted and dropped.
func (s *Session) HandleDeployResponse(r *DeployResponse) {
	if s.state != sessionDeploying || r == nil {
		s.result.DupResponses++
		return
	}
	if r.OK {
		s.result.Deployed = true
		s.result.Offer = s.pendingOffer
		s.result.Decision = s.pendingDec
		s.result.Response = r
		s.finish()
		return
	}
	// NACK: the offer may have expired mid-flight or the provider
	// restarted and forgot it. Re-discover from scratch.
	s.result.DeployNACKs++
	s.state = sessionDiscovering
	s.retryDiscovery("deploy NACK: " + r.Reason)
}

func (s *Session) finishFallback(reason string) {
	s.result.Fallback = true
	s.result.Reason = reason
	s.finish()
}

func (s *Session) finish() {
	if s.state == sessionDone {
		return
	}
	s.state = sessionDone
	s.timerGen++
	s.result.Elapsed = s.Clock.Now() - s.started
	if s.Done != nil {
		s.Done(s.result)
	}
}
