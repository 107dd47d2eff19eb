package main

import (
	"math"
	"sort"
	"strings"
)

// The names below are the benchmark's contract: BENCHMARK.json at the
// repository root is `go run ./benchmark -list`, and a test keeps the
// two equal. A metric's name, unit and direction never change once a
// baseline has been recorded against it; add a new name instead.

// runSeconds is the timed section of one driver run (BENCHMARK.json's
// run_seconds). Without -seconds the command uses the same value.
const runSeconds = 20

// defaultSeed is used when -seed is not given.
const defaultSeed = 1

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-
	// layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; all are host wall clock (virtual time is a count,
// see virtual_s in perLayer). The host-time bounds are what this
// sandbox's noise allows, not what one would like: README.md, "Noise",
// has the measurements behind them.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tuples_per_s", "tuples/s", higher, 0.20},
	{"ops_per_s", "ops/s", higher, 0.20},
	{"op_ms_p50", "ms", lower, 0.20},
	{"op_ms_p90", "ms", lower, 0.25},
	{"op_ms_p99", "ms", lower, 0.25},
	{"first_pair_ms_p50", "ms", lower, 0.20},
	{"alloc_mb_per_op", "MB", lower, 0.02},
}

// soloMethods are the ops of one solo round, in order: the paper's seven
// methods and the streaming SYM-H.
var soloMethods = []string{"DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH", "SYM-H"}

// tracedOnlyMethod runs in the layer ladder only.
const tracedOnlyMethod = "TT-SM"

// batchPolicies are the ops of one batch cycle, in order.
var batchPolicies = []string{"fifo", "mount-aware", "shared-scan"}

// metricName makes a method symbol usable inside a metric name.
func metricName(prefix, method, suffix string) string {
	return prefix + strings.ReplaceAll(method, "/", "-") + suffix
}

// perLayer lists the traced run's metrics, layer = module name. A
// metric that does not apply to a workload reads 0 there. (c) marks a
// count that must repeat exactly for the same seed on the same commit.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "virtual_s", Unit: "s", Better: lower}, // (c) simulated seconds of one round, sim backend
		{Name: "relation.gen_tuples_per_s", Unit: "tuples/s", Better: higher},
		{Name: "block.encode_ns_per_tuple", Unit: "ns", Better: lower},
		{Name: "block.decode_ns_per_tuple", Unit: "ns", Better: lower},
		{Name: "block.decode_alloc_b_per_tuple", Unit: "B", Better: lower},
		{Name: "block.verify_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "hashutil.bucket_ns_per_key", Unit: "ns", Better: lower},
		{Name: "sim.hold_switch_ns", Unit: "ns", Better: lower},
		{Name: "sim.resource_handoff_ns", Unit: "ns", Better: lower},
		{Name: "sim.container_handoff_ns", Unit: "ns", Better: lower},
		{Name: "sim.async_roundtrip_ns", Unit: "ns", Better: lower},
		{Name: "simdev.drive_read_blocks_per_s", Unit: "blocks/s", Better: higher},
		{Name: "simdev.store_rw_blocks_per_s", Unit: "blocks/s", Better: higher},
		{Name: "tape.read_mb", Unit: "MB", Better: lower},       // (c)
		{Name: "tape.written_mb", Unit: "MB", Better: lower},    // (c)
		{Name: "tape.seeks", Unit: "count", Better: lower},      // (c)
		{Name: "disk.read_mb", Unit: "MB", Better: lower},       // (c)
		{Name: "disk.written_mb", Unit: "MB", Better: lower},    // (c)
		{Name: "disk.peak_mb", Unit: "MB", Better: lower},       // (c)
		{Name: "buffer.mem_peak_mb", Unit: "MB", Better: lower}, // (c)
		{Name: "buffer.util_pct", Unit: "%", Better: higher},    // (c)
		{Name: "ioengine.submit_complete_ns", Unit: "ns", Better: lower},
		{Name: "ioengine.busy_s", Unit: "s", Better: lower},
		{Name: "ioengine.union_s", Unit: "s", Better: lower},
		{Name: "ioengine.overlap_ratio", Unit: "ratio", Better: higher},
		{Name: "ioengine.retries", Unit: "count", Better: lower},
		{Name: "ioengine.timeouts", Unit: "count", Better: lower},
		{Name: "filedev.append_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "filedev.read_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "filedev.store_write_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "filedev.store_read_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "filedev.disk_b_per_payload_b", Unit: "B/B", Better: lower},
	}
	methods := append(append([]string{}, soloMethods...), tracedOnlyMethod)
	for _, m := range methods {
		defs = append(defs,
			metricDef{Name: metricName("join.", m, ".op_ms_p50"), Unit: "ms", Better: lower},
			metricDef{Name: metricName("join.", m, ".alloc_b_per_tuple"), Unit: "B", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "join.marginal_ns_per_pair", Unit: "ns", Better: lower},
		metricDef{Name: "join.first_pair_wall_ms.SYM-H", Unit: "ms", Better: lower},
		metricDef{Name: "join.first_pair_wall_ms.CDT-GH", Unit: "ms", Better: lower},
		metricDef{Name: "join.stop_after_ms", Unit: "ms", Better: lower},
		metricDef{Name: "cost.advise_us", Unit: "us", Better: lower})
	for _, m := range methods {
		if m != "SYM-H" { // the cost model has no SYM-H estimate
			defs = append(defs, metricDef{Name: metricName("cost.residual_ratio.", m, ""), Unit: "ratio", Better: lower}) // (c)
		}
	}
	for _, p := range batchPolicies {
		defs = append(defs, metricDef{Name: "workload.batch_ms_p50." + p, Unit: "ms", Better: lower})
	}
	for _, p := range batchPolicies {
		defs = append(defs, metricDef{Name: "workload.makespan_s." + p, Unit: "s", Better: lower}) // (c)
	}
	for _, p := range batchPolicies {
		defs = append(defs, metricDef{Name: "workload.mounts." + p, Unit: "count", Better: lower}) // (c)
	}
	return append(defs,
		metricDef{Name: "workload.shared_passes", Unit: "count", Better: higher},   // (c)
		metricDef{Name: "workload.cache_hit_ratio", Unit: "ratio", Better: higher}, // (c)
		metricDef{Name: "service.decode_request_us", Unit: "us", Better: lower},
		metricDef{Name: "service.wire_overhead_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "service.run_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "service.limit_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "service.pairs_streamed", Unit: "count", Better: higher},
		metricDef{Name: "service.pairs_dropped", Unit: "count", Better: lower},
		metricDef{Name: "service.rejected", Unit: "count", Better: lower},
		metricDef{Name: "service.mounts", Unit: "count", Better: lower},
		metricDef{Name: "obs.span_ns", Unit: "ns", Better: lower},
		metricDef{Name: "obs.flight_post_ns", Unit: "ns", Better: lower},
		metricDef{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "host.heap_peak_mb", Unit: "MB", Better: lower},
		metricDef{Name: "host.gc_pause_ms", Unit: "ms", Better: lower},
		metricDef{Name: "host.gc_cpu_fraction", Unit: "ratio", Better: lower},
		metricDef{Name: "host.mallocs_per_op", Unit: "count", Better: lower})
}

// exactCount reports whether a per-layer metric is marked (c): a
// simulated quantity that must repeat exactly.
func exactCount(name string) bool {
	switch {
	case name == "virtual_s", name == "workload.shared_passes", name == "workload.cache_hit_ratio":
		return true
	}
	for _, p := range []string{"tape.", "disk.", "buffer.", "cost.residual_ratio.", "workload.makespan_s.", "workload.mounts."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, and the sample count. It does not modify
// xs. An empty sample yields 0.
func percentile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), n
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// metrics is one run's named results. Units come from the definitions.
type metrics map[string]float64
