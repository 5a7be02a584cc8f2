package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pvn/internal/core"
	"pvn/internal/dataplane"
	"pvn/internal/discovery"
	"pvn/internal/middlebox"
	"pvn/internal/netsim"
	"pvn/internal/openflow"
	"pvn/internal/overlay"
	"pvn/internal/pki"
)

// modelledBytesPerSubscriber is the runtime's memory model for one
// subscriber of pvncTemplate: two instances at the default 6 MB.
const modelledBytesPerSubscriber = 2 * middlebox.DefaultMemoryBytes

// bootAdvance is how far the injected clock moves after a deployment so
// its middleboxes (30 ms modelled boot) are ready; the benchmark reports
// the CPU the host spends, not modelled delay.
const bootAdvance = 100 * time.Millisecond

// host is the PVN edge host under test. newHost assembles it from public
// constructors exactly as `pvnd serve -dataplane=sharded` does: a
// standard network, a pipeline with zero-value Shards/BatchSize/
// QueueDepth so product defaults flow through, chain execution through
// middlebox.Synchronized, and deployments mirrored into the pipeline's
// table through Server.ExtraRules.
type host struct {
	clock  atomic.Int64 // injected simulated time, ns
	net    *core.AccessNetwork
	dp     *dataplane.Pipeline
	vendor *pki.CA
	// outputs counts OnOutput calls; the window-1 sender spins on it.
	outputs atomic.Int64
}

// hostProvider prices the two module types of pvncTemplate at zero, as
// pvnd's default policy does.
func hostProvider() *discovery.ProviderPolicy {
	return &discovery.ProviderPolicy{
		Provider:     "bench-isp",
		DeployServer: "bench-host",
		Standards:    []string{discovery.StandardMatchAction, discovery.StandardMiddlebox},
		Supported:    map[string]int64{"pii-detect": 0, "tracker-block": 0},
	}
}

// newHost builds the host with room for capacity subscribers. tap, when
// non-nil, sees every forwarded packet after it is counted; it is called
// from worker goroutines.
func newHost(capacity int, policy dataplane.DropPolicy, tap func(data []byte)) (*host, error) {
	h := &host{}
	now := func() time.Duration { return time.Duration(h.clock.Load()) }
	vendorKey, err := pki.GenerateKey(pki.NewDeterministicRand(1))
	if err != nil {
		return nil, fmt.Errorf("vendor key: %w", err)
	}
	h.vendor = pki.NewRootCA("Platform Vendor", vendorKey, 0, 1<<40)
	h.net, err = core.NewStandardNetwork(core.NetworkConfig{
		Name:           "bench-isp",
		Provider:       hostProvider(),
		Now:            now,
		NowSeconds:     func() int64 { return int64(now() / time.Second) },
		Vendor:         h.vendor,
		VendorSeed:     2,
		MemoryCapBytes: (capacity + 64) * modelledBytesPerSubscriber,
	})
	if err != nil {
		return nil, fmt.Errorf("standard network: %w", err)
	}
	h.dp = dataplane.New(dataplane.Config{
		Policy: policy,
		Chains: middlebox.Synchronized(h.net.Server.Runtime),
		Now:    now,
		OnOutput: func(_ uint16, data []byte) {
			h.outputs.Add(1)
			if tap != nil {
				tap(data)
			}
		},
	})
	h.net.Server.ExtraRules = h.dp.Table()
	h.dp.Start()
	return h, nil
}

// advance moves the injected clock.
func (h *host) advance(d time.Duration) { h.clock.Add(int64(d)) }

// deploy installs one resident through the deployment server as a
// walk-in (no offer), the path bulk provisioning takes.
func (h *host) deploy(s *subscriber) error {
	resp := h.net.Server.HandleDeploy(&discovery.DeployRequest{DeviceID: s.id, PVNCSource: s.text})
	if !resp.OK {
		return fmt.Errorf("deploy %s: %s", s.id, resp.Reason)
	}
	return nil
}

// deployAll installs every resident and boots their middleboxes.
func (h *host) deployAll(subs []subscriber) error {
	for i := range subs {
		if err := h.deploy(&subs[i]); err != nil {
			return err
		}
	}
	h.advance(bootAdvance)
	return nil
}

func (h *host) close() { h.dp.Stop() }

// awaitTimeout bounds how long the benchmark waits for one packet's
// OnOutput before it counts the operation as failed.
const awaitTimeout = 2 * time.Second

// awaitOutputs spins until OnOutput has fired want times in total and
// reports whether it did. A pure spin would starve the worker when
// GOMAXPROCS is 1, so it yields between short bursts of polling.
func (h *host) awaitOutputs(want int64) bool {
	var deadline time.Time
	for spins := 1; h.outputs.Load() < want; spins++ {
		if spins%64 != 0 {
			continue
		}
		runtime.Gosched()
		if spins%(64*1024) == 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(awaitTimeout)
			} else if time.Now().After(deadline) {
				return false
			}
		}
	}
	return true
}

// serialVerdict runs a frame through the host's serial reference switch
// (same rules, same runtime). Only call it while the pipeline is idle:
// the bare runtime is not goroutine-safe.
func (h *host) serialVerdict(frame []byte) openflow.Verdict {
	return h.net.Server.Switch.Process(frame, 0).Verdict
}

// overlayWorld is the decentralized half of the session path: E16's
// dual-star links with an overlay node on every leaf, joined through
// node 0, and three providers' signed offers under one service key.
type overlayWorld struct {
	clock *netsim.Clock
	net   *netsim.Network
	nodes []*overlay.Node
}

const (
	overlayService   = "pvn"
	overlayProviders = 3
	// overlayTopologySeed fixes the simulated network; the benchmark
	// seed only chooses which nodes ask.
	overlayTopologySeed = 16
)

func newOverlayWorld(n int) (*overlayWorld, error) {
	link := netsim.LinkConfig{Latency: 5 * time.Millisecond, BandwidthBps: 100e6}
	bridge := netsim.LinkConfig{Latency: 10 * time.Millisecond, BandwidthBps: 1e9}
	nA := n / 2
	net, _, leaves := netsim.NewDualStarTopology(overlayTopologySeed, nA, n-nA, link, bridge)
	w := &overlayWorld{clock: net.Clock, net: net}
	for _, side := range leaves {
		for _, leaf := range side {
			kp, err := pki.GenerateKey(pki.NewDeterministicRand(uint64(len(w.nodes)) + 1))
			if err != nil {
				return nil, fmt.Errorf("overlay key: %w", err)
			}
			w.nodes = append(w.nodes, overlay.NewNode(leaf, kp, overlay.Config{}))
		}
	}
	for i := 1; i < len(w.nodes); i++ {
		node := w.nodes[i]
		w.clock.Schedule(time.Duration(i)*20*time.Millisecond, func() {
			node.Join(w.nodes[0].Self(), nil)
		})
	}
	w.clock.Run()
	std := []string{discovery.StandardMatchAction, discovery.StandardMiddlebox}
	for p := 0; p < overlayProviders; p++ {
		kp, err := pki.GenerateKey(pki.NewDeterministicRand(900001 + uint64(p)))
		if err != nil {
			return nil, fmt.Errorf("provider key: %w", err)
		}
		price := int64(10 * (p + 1))
		ad := overlay.OfferAd{
			Provider:     fmt.Sprintf("isp-%d", p),
			DeployServer: fmt.Sprintf("host-%d", p),
			Standards:    std,
			Supported:    map[string]int64{"pii-detect": price, "tracker-block": price},
		}
		w.nodes[(1+p*(n/overlayProviders))%n].Put(overlay.NewOfferRecord(overlayService, ad, kp, 1), nil)
	}
	w.clock.Run()
	return w, nil
}

// traffic sums messages and bytes sent on every port of the simulated
// network.
func (w *overlayWorld) traffic() (msgs, bytes int64) {
	for _, n := range w.net.Nodes() {
		for _, p := range n.Ports() {
			msgs += p.Stats.TxMessages
			bytes += p.Stats.TxBytes
		}
	}
	return msgs, bytes
}
