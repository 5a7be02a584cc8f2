package main

import "time"

// The tables in this file are the benchmark's definition. BENCHMARK.json
// at the repository root repeats the names, units, directions and bounds
// for the driver; bench_test.go fails when the two drift apart.

// benchPath is the directory BENCHMARK.json lists under "paths".
const benchPath = "bench"

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures when -seconds is not given.
const defaultSeconds = 16

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
	What  string
}

// endToEnd is what a user of the host sees. Every workload reports every
// one of them; "op" is the workload's own operation — a packet from
// Submit to verdict on the three packet workloads, a session from first
// DM to teardown on attach_churn, one offer discovery on overlay_discover
// — and the alias column of the report names it.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "building the world before the timed phase (keys, runtime, residents through HandleDeploy, frames); median of setupRepeats builds"},
	{"ops_per_s", "1/s", "higher", 0.25, "closed loop, one client: operations completed per wall second; upper quartile over rounds"},
	{"cpu_ns_per_op", "ns", "lower", 0.25, "process CPU (getrusage utime+stime) over the closed-loop rounds divided by operations"},
	{"lat_p50_us", "us", "lower", 0.25, "one operation at a time on an idle host: Submit to OnOutput (packets), Connect entry to first forwarded packet (sessions), Query to last offer (discoveries); lower quartile of latencySlices slice medians"},
	{"lat_p90_us", "us", "lower", 0.25, "same samples, lower quartile of the slices' p90; p99 is printed and kept as a per-layer diagnostic because it does not repeat on a shared box"},
	{"heap_live_mb", "MB", "lower", 0.10, "HeapAlloc after two GCs at a fixed operation count, world still up"},
}

// alias gives the workload-specific reading of a generic end-to-end
// name, as ISSUE 11 spelled it.
var alias = map[string]map[string]string{
	"packet": {
		"ops_per_s": "pkt_rate_pps", "cpu_ns_per_op": "pkt_cpu_ns",
		"lat_p50_us": "pkt_lat_p50_us", "lat_p90_us": "pkt_lat_p90_us",
	},
	"session": {
		"ops_per_s": "attach_rate_per_s", "cpu_ns_per_op": "attach_cpu_ns",
		"lat_p50_us": "attach_lat_p50_us", "lat_p90_us": "attach_lat_p90_us",
	},
	"discovery": {
		"ops_per_s": "discover_rate_per_s", "cpu_ns_per_op": "discover_cpu_ns",
		"lat_p50_us": "discover_lat_p50_us", "lat_p90_us": "discover_lat_p90_us",
	},
}

type workloadSpec struct {
	Name string
	Kind string // "packet", "session" or "discovery"
	Why  string
	// Residents are deployed before the timed phase (overlay nodes for
	// the discovery workload); Flows is the concurrent flow count.
	Residents, Flows int
	// RoundOps is the fixed operation count of one closed-loop round;
	// a run repeats rounds until its time is spent and reports medians.
	RoundOps int
}

var workloads = []workloadSpec{
	{
		Name: "fwd_cached", Kind: "packet", Residents: 200, Flows: 4096, RoundOps: 1 << 19,
		Why: "bare forwarding of 40-byte segments on cached flows: Submit peek+copy, ring hand-off, LookupCached, counter flush, OnOutput are all the work; sharding and batching show here only",
	},
	{
		Name: "chain_http", Kind: "packet", Residents: 200, Flows: 4096, RoundOps: 1 << 14,
		Why: "the realistic PVN packet: 200-1400 B HTTP GETs through pii-detect+tracker-block, 2% leak the owner's secret and must be dropped; chain execution is ~95% of per-packet CPU",
	},
	{
		Name: "flow_churn", Kind: "packet", Residents: 1000, Flows: 1 << 14, RoundOps: 1 << 16,
		Why: "every flow lives 4 packets and never returns over 6000 rules: 25% of packets miss and pay decode + rule scan + cache insert, and the flow cache only grows",
	},
	{
		Name: "attach_churn", Kind: "session", Residents: 1000, Flows: 64, RoundOps: 32,
		Why: "the session path: Parse, Connect (DM, offer, evaluate, deploy, two O(rules) table installs per rule), first packet, a 256-packet burst right after the rule write, audit, teardown",
	},
	{
		Name: "overlay_discover", Kind: "discovery", Residents: 128, Flows: 0, RoundOps: 32,
		Why: "the decentralized half of the session path: envelope encode/decode per hop, Ed25519 verify per merged record, offer synthesis and ranking, netsim scheduling; no other workload runs this code",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runConfig is one invocation of one workload.
type runConfig struct {
	spec    workloadSpec
	seed    uint64
	seconds float64
	// scale multiplies every count of the workload (residents, flows,
	// round size); the smoke test runs at a thousandth.
	scale float64
	// rec is non-nil in a traced run.
	rec *recorder
}

// scaled applies the scale to a count, never going below floor.
func (c runConfig) scaled(n, floor int) int {
	v := int(float64(n) * c.scale)
	if v < floor {
		return floor
	}
	return v
}

// budget is the share of the run's measuring time given to one phase.
func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

const (
	// setupRepeats is how many times a run builds its world; setup_s is
	// the median.
	setupRepeats = 5
	// heapAfterRounds is the fixed point (in measured rounds) at which
	// heap_live_mb is read, so it does not depend on how many rounds the
	// machine fits into the run.
	heapAfterRounds = 4
	// latencySlices is how many slices the latency samples are cut into.
	latencySlices = 20
	// burstPackets follow every attach over Flows resident flows.
	burstPackets = 256
	// leakPerMille of chain_http frames carry the owner's secret.
	leakPerMille = 20
	// httpPerFlow frames are generated per chain_http flow.
	httpPerFlow = 2
	// loadedPPS is the fixed offered rate of the open-loop diagnostic.
	loadedPPS = 50000
)

// perLayer rows come from a traced run (-trace 1). Times are medians of
// direct calls into one layer's public entry points, made in the
// caller's goroutine over the workload's own frames and texts where the
// workload has them and a seeded fixture otherwise; ratios and counts
// are read from the workload's own traced pass and are 0 on a workload
// that does not cross the layer.
var perLayer = []metricSpec{
	{Name: "packet.decode_headers_ns", Unit: "ns", Better: "lower", What: "Decoder.DecodeHeaders"},
	{Name: "packet.decode_full_ns", Unit: "ns", Better: "lower", What: "packet.Decode of an HTTP frame"},
	{Name: "packet.decode_full_allocs", Unit: "count", Better: "lower", What: "mallocs per packet.Decode"},
	{Name: "openflow.extract_fields_ns", Unit: "ns", Better: "lower", What: "ExtractFields on decoded headers"},
	{Name: "openflow.scan_rules_per_miss", Unit: "count", Better: "lower", What: "index of first matching rule in Entries() order, mean over the workload's flows"},
	{Name: "openflow.switch_process_ns", Unit: "ns", Better: "lower", What: "serial Switch.Process, same rules and frames"},
	{Name: "openflow.switch_process_allocs", Unit: "count", Better: "lower", What: "mallocs per Switch.Process"},
	{Name: "openflow.table_install_ns", Unit: "ns", Better: "lower", What: "FlowTable.Install at the resident rule count"},
	{Name: "dataplane.submit_ns", Unit: "ns", Better: "lower", What: "caller-side duration of Submit"},
	{Name: "dataplane.cache_hit_ratio", Unit: "ratio", Better: "higher", What: "CacheHits/Processed over one closed-loop round"},
	{Name: "dataplane.batch_fill", Unit: "count", Better: "higher", What: "Processed/Batches"},
	{Name: "dataplane.shard_imbalance", Unit: "ratio", Better: "lower", What: "max/mean Processed across shards"},
	{Name: "dataplane.queue_drop_ratio", Unit: "ratio", Better: "lower", What: "Dropped/Enqueued"},
	{Name: "dataplane.worker_busy_ratio", Unit: "ratio", Better: "lower", What: "sum TotalNs / (wall x shards)"},
	{Name: "dataplane.lookup_share", Unit: "ratio", Better: "lower", What: "sampled LookupNs x16 / TotalNs"},
	{Name: "dataplane.decode_share", Unit: "ratio", Better: "lower", What: "sampled DecodeNs x16 / TotalNs"},
	{Name: "dataplane.chain_share", Unit: "ratio", Better: "lower", What: "sampled ChainNs x16 / TotalNs"},
	{Name: "dataplane.allocs_per_pkt", Unit: "count", Better: "lower", What: "process mallocs over one closed-loop round / packets"},
	{Name: "dataplane.burst_rate_pps", Unit: "1/s", Better: "higher", What: "attach_churn: burst packets / summed burst wall time"},
	{Name: "dataplane.table_install_ns", Unit: "ns", Better: "lower", What: "ShardedTable.Install at the resident rule count"},
	{Name: "dataplane.table_remove_ns", Unit: "ns", Better: "lower", What: "ShardedTable.RemoveByCookie at the resident rule count"},
	{Name: "dataplane.loaded_lat_p50_us", Unit: "us", Better: "lower", What: "open loop at loadedPPS, DropNewest, timed from when each packet was due"},
	{Name: "dataplane.loaded_lat_p99_us", Unit: "us", Better: "lower", What: "same samples; diagnostic only"},
	{Name: "dataplane.loaded_drop_ratio", Unit: "ratio", Better: "lower", What: "queue drops / offered in the open loop"},
	{Name: "dataplane.gen_late_max_us", Unit: "us", Better: "lower", What: "how late the open-loop generator ran at worst"},
	{Name: "middlebox.chain_len0_ns", Unit: "ns", Better: "lower", What: "ExecuteChain on an empty chain: the isolation check only"},
	{Name: "middlebox.execute_chain_ns", Unit: "ns", Better: "lower", What: "Runtime.ExecuteChain, pii-detect+tracker-block"},
	{Name: "middlebox.execute_chain_allocs", Unit: "count", Better: "lower", What: "mallocs per ExecuteChain"},
	{Name: "middlebox.execute_chain_batch_ns", Unit: "ns", Better: "lower", What: "per packet, batch 32 through SyncExecutor.ExecuteChainBatch"},
	{Name: "middlebox.instantiate_ns", Unit: "ns", Better: "lower", What: "Instantiate x2 + BuildChainIn + RemoveChain + Terminate x2"},
	{Name: "middlebox.chain_err_ratio", Unit: "ratio", Better: "lower", What: "Stats().ChainErrs / Processed"},
	{Name: "mbx.pii_detect_ns", Unit: "ns", Better: "lower", What: "one-box chain minus chain_len0_ns"},
	{Name: "mbx.pii_detect_allocs", Unit: "count", Better: "lower", What: "mallocs per one-box chain call"},
	{Name: "mbx.tracker_block_ns", Unit: "ns", Better: "lower", What: "one-box chain minus chain_len0_ns"},
	{Name: "mbx.tracker_block_allocs", Unit: "count", Better: "lower", What: "mallocs per one-box chain call"},
	{Name: "tunnel.route_ns", Unit: "ns", Better: "lower", What: "Table.Route on a pinned flow"},
	{Name: "tunnel.wrap_ns", Unit: "ns", Better: "lower", What: "Table.Wrap"},
	{Name: "tunnel.wrap_allocs", Unit: "count", Better: "lower", What: "mallocs per Wrap"},
	{Name: "pvnc.parse_ns", Unit: "ns", Better: "lower", What: "pvnc.Parse of a subscriber text"},
	{Name: "pvnc.validate_ns", Unit: "ns", Better: "lower", What: "PVNC.Validate"},
	{Name: "pvnc.compile_ns", Unit: "ns", Better: "lower", What: "pvnc.Compile"},
	{Name: "pvnc.compile_allocs", Unit: "count", Better: "lower", What: "mallocs per Compile"},
	{Name: "pvnc.compile_shared_ns", Unit: "ns", Better: "lower", What: "TemplateCache.CompileShared; every subscriber's secrets differ, so no two share a template"},
	{Name: "discovery.make_dm_ns", Unit: "ns", Better: "lower", What: "Negotiator.MakeDM"},
	{Name: "discovery.handle_dm_ns", Unit: "ns", Better: "lower", What: "ProviderPolicy.HandleDM"},
	{Name: "discovery.evaluate_ns", Unit: "ns", Better: "lower", What: "Negotiator.Evaluate"},
	{Name: "discovery.build_deploy_ns", Unit: "ns", Better: "lower", What: "Negotiator.BuildDeployRequest"},
	{Name: "deployserver.handle_deploy_ns_r100", Unit: "ns", Better: "lower", What: "Server.HandleDeploy with 100 residents"},
	{Name: "deployserver.handle_deploy_ns_r1000", Unit: "ns", Better: "lower", What: "Server.HandleDeploy with 1000 residents; the ratio to r100 is the O(rules) install cost"},
	{Name: "deployserver.handle_deploy_allocs", Unit: "count", Better: "lower", What: "mallocs per HandleDeploy with 1000 residents"},
	{Name: "deployserver.handle_deploy_self_ns", Unit: "ns", Better: "lower", What: "handle_deploy_ns_r1000 minus the parse, validate, compile, instantiate and table-install rows"},
	{Name: "deployserver.teardown_ns", Unit: "ns", Better: "lower", What: "Server.Teardown with 1000 residents"},
	{Name: "deployserver.renew_ns", Unit: "ns", Better: "lower", What: "Server.Renew"},
	{Name: "deployserver.manifest_ns", Unit: "ns", Better: "lower", What: "Server.BuildManifest with 1000 residents"},
	{Name: "core.connect_ns", Unit: "ns", Better: "lower", What: "core.Connect with 1000 residents"},
	{Name: "core.audit_ns", Unit: "ns", Better: "lower", What: "Session.Audit"},
	{Name: "core.teardown_ns", Unit: "ns", Better: "lower", What: "Session.Teardown"},
	{Name: "auditor.attest_ns", Unit: "ns", Better: "lower", What: "Attester.Attest"},
	{Name: "auditor.verify_ns", Unit: "ns", Better: "lower", What: "VerifyAttestation (pki chain + Ed25519)"},
	{Name: "billing.invoice_ns", Unit: "ns", Better: "lower", What: "GenerateInvoice"},
	{Name: "overlay.envelope_encode_ns", Unit: "ns", Better: "lower", What: "Envelope.Encode of a find-value answer"},
	{Name: "overlay.envelope_decode_ns", Unit: "ns", Better: "lower", What: "DecodeEnvelope of the same"},
	{Name: "overlay.envelope_allocs", Unit: "count", Better: "lower", What: "mallocs per encode+decode"},
	{Name: "overlay.record_verify_ns", Unit: "ns", Better: "lower", What: "Record.Verify"},
	{Name: "overlay.decode_offer_ad_ns", Unit: "ns", Better: "lower", What: "DecodeOfferAd (verify + parse)"},
	{Name: "overlay.rounds_per_discover", Unit: "count", Better: "lower", What: "OfferSource.LookupRounds, mean over one round of discoveries"},
	{Name: "overlay.msgs_per_discover", Unit: "count", Better: "lower", What: "netsim messages sent per discovery"},
	{Name: "overlay.allocs_per_discover", Unit: "count", Better: "lower", What: "process mallocs per discovery"},
	{Name: "overlay.bytes_per_discover", Unit: "count", Better: "lower", What: "netsim bytes sent per discovery"},
	{Name: "netsim.events_per_discover", Unit: "count", Better: "lower", What: "Clock events run per discovery"},
	{Name: "netsim.event_ns", Unit: "ns", Better: "lower", What: "Clock.Schedule + run of a no-op event"},
	{Name: "orchestrator.submit_ns", Unit: "ns", Better: "lower", What: "Cluster.Submit (placement and book only), 16 hosts"},
	{Name: "orchestrator.place_ns_h16", Unit: "ns", Better: "lower", What: "HeuristicPlacer.Place over 16 hosts"},
	{Name: "orchestrator.place_ns_h256", Unit: "ns", Better: "lower", What: "HeuristicPlacer.Place over 256 hosts"},
	{Name: "bench.lat_p99_us", Unit: "us", Better: "lower", What: "p99 of the traced pass's spans-off latency samples (lower quartile of slice p99s); diagnostic only: on a shared two-core box it swings by 2x between identical runs of fwd_cached"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher", What: "latency-phase operations per second with spans on / with spans off"},
}
