package openflow

import "time"

// Meter is a token-bucket rate limiter attached to flow entries via
// Metered actions. Of the two enforcement styles the paper's
// network-management discussion distinguishes (§2.2) it implements
// shaping — delay to conform, what "Binge On"-style 1.5 Mbps video
// throttles do — and not policing: no rule drops over rate.
type Meter struct {
	// RateBps is the sustained rate in bits per second.
	RateBps float64
	// BurstBytes is the bucket depth. Zero defaults to 64 KiB.
	BurstBytes int

	tokens  float64 // current bucket level in bytes
	last    time.Duration
	started bool

	// Counters.
	Conformed int64
	Exceeded  int64
}

func (m *Meter) refill(now time.Duration) {
	burst := float64(m.BurstBytes)
	if burst == 0 {
		burst = 64 << 10
	}
	if !m.started {
		m.tokens = burst
		m.last = now
		m.started = true
		return
	}
	dt := (now - m.last).Seconds()
	if dt > 0 {
		m.tokens += dt * m.RateBps / 8
		if m.tokens > burst {
			m.tokens = burst
		}
		m.last = now
	}
}

// Shape consumes size bytes, going into token debt if necessary, and
// returns how long the packet must be delayed to conform. A zero return
// means transmit immediately.
func (m *Meter) Shape(now time.Duration, size int) time.Duration {
	m.refill(now)
	m.tokens -= float64(size)
	if m.tokens >= 0 {
		m.Conformed++
		return 0
	}
	m.Exceeded++
	// Time to earn back the deficit.
	deficit := -m.tokens
	return time.Duration(deficit * 8 / m.RateBps * float64(time.Second))
}
