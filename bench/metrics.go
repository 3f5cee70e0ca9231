package main

import (
	"math"
	"sort"
)

// metricDef names one reported number.  The lists below are the contract
// BENCHMARK.json repeats: bench_test.go fails when the two drift apart.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

// endToEnd are the gated metrics of the untraced pass; every workload
// reports every one of them and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"op_ms_p25", "ms", false},
	{"alloc_kb_per_op", "kB", false},
	{"heap_live_mb", "MB", false},
}

// perLayer are the metrics of a traced run.  The first block is one number
// per call into a layer's public function; the last block holds the
// end-to-end numbers that cannot gate: op_ms_p95, whose spread on the
// reference host exceeds any bound the contract allows, and those only one
// workload's untraced pass yields.  They keep the untraced pass's values.
var perLayer = []metricDef{
	{"queryparse.parse_us", "us", false},
	{"plan.compile_us", "us", false},
	{"plan.exec_ms", "ms", false},
	{"plan.exec_cold_ms", "ms", false},
	{"plan.exec_rows_per_s", "1/s", true},
	{"plan.parallel_speedup", "ratio", true},
	{"plan.coded_speedup", "ratio", true},
	{"plan.worldplan_build_ms", "ms", false},
	{"plan.world_answer_us", "us", false},
	{"table.cow_write_us", "us", false},
	{"table.snapshot_us", "us", false},
	{"table.encoding_build_ms", "ms", false},
	{"table.partition_build_ms", "ms", false},
	{"table.index_build_ms", "ms", false},
	{"table.encoding_declines", "count", false},
	{"certain.plan_cache_hit_ratio", "ratio", true},
	{"certain.plan_cache_evictions", "count", false},
	{"certain.world_cache_hit_ratio", "ratio", true},
	{"certain.sweep_ms", "ms", false},
	{"certain.worlds_enumerated", "count", true},
	{"engine.eval_ms", "ms", false},
	{"engine.update_us", "us", false},
	{"engine.commit_us", "us", false},
	{"inc.apply_us", "us", false},
	{"inc.incremental_ratio", "ratio", true},
	{"version.commit_us", "us", false},
	{"version.asof_us", "us", false},
	{"store.encode_record_us", "us", false},
	{"store.decode_record_us", "us", false},
	{"store.append_us", "us", false},
	{"store.append_us_p95", "us", false},
	{"store.manifest_ms", "ms", false},
	{"store.log_bytes_per_commit", "B", false},
	{"store.chunk_bytes_written", "B", false},
	{"store.chunk_dedup_ratio", "ratio", true},
	{"store.open_ms", "ms", false},
	{"store.load_ms", "ms", false},
	{"wire.encode_us", "us", false},
	{"wire.decode_us", "us", false},
	{"wire.resp_bytes", "B", false},
	{"server.rtt_us", "us", false},
	{"server.served", "count", true},
	{"server.rejected", "count", false},
	{"server.pushes", "count", true},
	{"trace.coverage_ratio", "ratio", true},

	{"op_ms_p50", "ms", false},
	{"op_ms_p95", "ms", false},
	{"host.slowdown", "ratio", false},
	{"worlds_per_s", "1/s", true},
	{"query_ms_p99", "ms", false},
	{"commit_ms_p50", "ms", false},
	{"commit_ms_p95", "ms", false},
	{"asof_ms_p50", "ms", false},
	{"open_ms", "ms", false},
	{"store_bytes_per_user_byte", "ratio", false},
	{"failed_ratio", "ratio", false},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
// An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
