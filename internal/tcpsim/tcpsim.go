// Package tcpsim models TCP transfer dynamics at flow level: slow start,
// congestion avoidance, fast recovery and retransmission timeouts evolve
// round by round (one round = one RTT), which is the standard analytic
// treatment of TCP performance.
//
// The PVN paper's performance argument (§2.2) rests on how split-TCP
// proxies change these dynamics: terminating the connection at an
// in-network proxy shortens each segment's RTT, so the congestion window
// grows faster and losses are detected sooner — but the proxy adds its own
// per-packet overhead, which can make things worse on already-good paths.
// This package exposes both the direct and split models so experiment E3
// can reproduce that crossover.
package tcpsim

import (
	"fmt"
	"time"

	"pvn/internal/netsim"
)

// Params describes one TCP path segment.
type Params struct {
	// RTT is the base round-trip time of the segment.
	RTT time.Duration
	// BandwidthBps is the bottleneck rate in bits per second.
	BandwidthBps float64
	// LossRate is the independent per-packet loss probability.
	LossRate float64
	// MSS is the maximum segment size in bytes. Defaults to 1460.
	MSS int
}

// Every modelled connection starts at initCwnd segments (RFC 6928) and
// caps its window at maxCwnd.
const (
	initCwnd = 10
	maxCwnd  = 1000
)

func (p *Params) applyDefaults() {
	if p.MSS == 0 {
		p.MSS = 1460
	}
}

// Validate reports structurally impossible parameters.
func (p Params) Validate() error {
	if p.RTT <= 0 {
		return fmt.Errorf("tcpsim: RTT must be positive, got %v", p.RTT)
	}
	if p.BandwidthBps <= 0 {
		return fmt.Errorf("tcpsim: bandwidth must be positive, got %v", p.BandwidthBps)
	}
	if p.LossRate < 0 || p.LossRate >= 1 {
		return fmt.Errorf("tcpsim: loss rate %v outside [0,1)", p.LossRate)
	}
	return nil
}

// Trace records what happened during a simulated transfer.
type Trace struct {
	// Duration is the total transfer time including the connection
	// handshake (one RTT).
	Duration time.Duration
	// FirstByte is the time until the first data byte arrives.
	FirstByte time.Duration
	// Rounds is the number of RTT rounds data flowed.
	Rounds int
	// FastRecoveries counts window halvings from triple-dup-ack-style
	// loss detection.
	FastRecoveries int
	// Timeouts counts full retransmission timeouts (window collapse).
	Timeouts int
	// Throughput is goodput in bits per second.
	Throughput float64
}

// TransferTime simulates downloading totalBytes over a single TCP
// connection with the given path parameters. The rng drives loss draws;
// pass a seeded generator for reproducible results.
func TransferTime(p Params, totalBytes int, rng *netsim.RNG) (Trace, error) {
	p.applyDefaults()
	if err := p.Validate(); err != nil {
		return Trace{}, err
	}
	if totalBytes <= 0 {
		return Trace{Duration: p.RTT, FirstByte: p.RTT}, nil
	}

	// Bandwidth-delay product in segments bounds the useful window.
	bdpSegs := int(p.BandwidthBps * p.RTT.Seconds() / 8 / float64(p.MSS))
	if bdpSegs < 1 {
		bdpSegs = 1
	}
	maxW := maxCwnd
	// Allow one BDP of queueing beyond the pipe before the cap binds.
	if cap := 2 * bdpSegs; cap < maxW {
		maxW = cap
	}

	tr := Trace{}
	elapsed := p.RTT // SYN/SYN-ACK handshake
	cwnd := float64(initCwnd)
	ssthresh := float64(maxW)
	remaining := totalBytes
	firstData := true

	for remaining > 0 {
		tr.Rounds++
		w := int(cwnd)
		if w < 1 {
			w = 1
		}
		if w > maxW {
			w = maxW
		}
		segs := (remaining + p.MSS - 1) / p.MSS
		if segs > w {
			segs = w
		}
		sent := segs * p.MSS
		if sent > remaining {
			sent = remaining
		}

		// The round takes one RTT plus the serialization time of what
		// was pushed beyond the pipe's capacity this round.
		roundTime := p.RTT
		serial := time.Duration(float64(sent*8) / p.BandwidthBps * float64(time.Second))
		if serial > roundTime {
			roundTime = serial
		}
		elapsed += roundTime
		if firstData {
			tr.FirstByte = elapsed
			firstData = false
		}

		// Did any segment in this round get lost?
		lost := false
		if p.LossRate > 0 {
			pAny := 1 - pow(1-p.LossRate, segs)
			lost = rng.Bool(pAny)
		}
		if lost {
			if segs >= 4 {
				// Enough dup acks for fast recovery: halve.
				tr.FastRecoveries++
				ssthresh = cwnd / 2
				if ssthresh < 2 {
					ssthresh = 2
				}
				cwnd = ssthresh
				// Retransmission costs one extra RTT.
				elapsed += p.RTT
			} else {
				// Too little data in flight: timeout.
				tr.Timeouts++
				ssthresh = cwnd / 2
				if ssthresh < 2 {
					ssthresh = 2
				}
				cwnd = 1
				elapsed += rtoFor(p.RTT)
			}
			// The lost segment is retransmitted; net progress this
			// round is one segment fewer.
			sent -= p.MSS
			if sent < 0 {
				sent = 0
			}
		} else {
			if cwnd < ssthresh {
				cwnd *= 2 // slow start
				if cwnd > ssthresh {
					cwnd = ssthresh
				}
			} else {
				cwnd++ // congestion avoidance
			}
			if cwnd > float64(maxW) {
				cwnd = float64(maxW)
			}
		}
		remaining -= sent

		if tr.Rounds > 1_000_000 {
			return tr, fmt.Errorf("tcpsim: transfer did not converge (loss=%v)", p.LossRate)
		}
	}

	tr.Duration = elapsed
	tr.Throughput = float64(totalBytes*8) / elapsed.Seconds()
	return tr, nil
}

// rtoFor returns the retransmission timeout for a path RTT: the standard
// conservative RTO is several RTTs with a 200ms floor (RFC 6298 min is 1s,
// but modern stacks floor near 200ms; either way it dwarfs an RTT).
func rtoFor(rtt time.Duration) time.Duration {
	rto := 4 * rtt
	if rto < 200*time.Millisecond {
		rto = 200 * time.Millisecond
	}
	return rto
}

// pow computes base**n for small n without importing math.Pow in the hot
// loop.
func pow(base float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= base
	}
	return out
}

// SplitParams describes a split-TCP deployment: the proxy terminates the
// client's connection and opens its own to the server.
type SplitParams struct {
	// ServerLeg is proxy<->server, ClientLeg is client<->proxy.
	ServerLeg, ClientLeg Params
	// ProxyPerPacket is the processing delay the proxy adds to each
	// MSS-sized unit (the paper's middlebox overhead, §3.3).
	ProxyPerPacket time.Duration
	// ProxyConnSetup is the one-time cost of establishing proxy state.
	ProxyConnSetup time.Duration
}

// SplitTransferTime simulates downloading totalBytes through a split-TCP
// proxy. The two legs progress concurrently: the client leg can deliver
// only bytes the server leg has already landed at the proxy, and every
// byte pays the proxy's per-packet processing cost.
func SplitTransferTime(sp SplitParams, totalBytes int, rng *netsim.RNG) (Trace, error) {
	sp.ServerLeg.applyDefaults()
	sp.ClientLeg.applyDefaults()
	if err := sp.ServerLeg.Validate(); err != nil {
		return Trace{}, err
	}
	if err := sp.ClientLeg.Validate(); err != nil {
		return Trace{}, err
	}

	server, err := TransferTime(sp.ServerLeg, totalBytes, rng)
	if err != nil {
		return Trace{}, err
	}
	client, err := TransferTime(sp.ClientLeg, totalBytes, rng)
	if err != nil {
		return Trace{}, err
	}

	nPackets := (totalBytes + sp.ClientLeg.MSS - 1) / sp.ClientLeg.MSS
	procTotal := time.Duration(nPackets) * sp.ProxyPerPacket

	// Pipelined completion: the client leg cannot finish before the
	// server leg has delivered everything to the proxy minus what the
	// client leg still has in flight; a standard bound is
	//   max(serverDone, clientDone + serverFirstByte) + overheads.
	duration := client.Duration + server.FirstByte
	if server.Duration+sp.ClientLeg.RTT > duration {
		duration = server.Duration + sp.ClientLeg.RTT
	}
	duration += sp.ProxyConnSetup + procTotal

	tr := Trace{
		Duration:       duration,
		FirstByte:      server.FirstByte + client.FirstByte + sp.ProxyConnSetup + sp.ProxyPerPacket,
		Rounds:         server.Rounds + client.Rounds,
		FastRecoveries: server.FastRecoveries + client.FastRecoveries,
		Timeouts:       server.Timeouts + client.Timeouts,
	}
	tr.Throughput = float64(totalBytes*8) / tr.Duration.Seconds()
	return tr, nil
}

// Compare runs the same transfer direct and split and returns both traces,
// the basic question experiment E3 asks at every parameter point.
func Compare(direct Params, sp SplitParams, totalBytes int, rng *netsim.RNG) (directTr, splitTr Trace, err error) {
	directTr, err = TransferTime(direct, totalBytes, rng.Fork())
	if err != nil {
		return
	}
	splitTr, err = SplitTransferTime(sp, totalBytes, rng.Fork())
	return
}
