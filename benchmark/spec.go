package main

import (
	"encoding/json"
)

// This file is the benchmark's contract: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics of
// the traced run. BENCHMARK.json at the root of the repository is
// `-spec` printed to a file; a unit test holds the two together.

const (
	runSeconds  = 24 // measured window of one run
	warmSeconds = 3  // untimed warm-up before it
	setupReps   = 5  // cold set-ups per run; setup_s is their median
	subWindows  = 4  // the window is cut in this many for drift quartiles

	batchRows    = 40000
	serveRows    = 10000
	deltaRows    = 8    // tuples per check, and inserts = deletes per update
	bodyCount    = 64   // rotating pre-marshaled request bodies
	pageWindow   = 2048 // RIDs per bounded violations page
	writeHz      = 2    // open-loop update rate on serve_mixed_10k
	readsPerPage = 8    // every 8th read on serve_mixed_10k is a page

	refEvery      = 8 // a service client pings the reference before every 8th request
	setupRefCalls = 6 // reference calls before each cold set-up
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func bound(b float64) *float64 { return &b }

// endToEnd is measured with tracing off, on every workload. The four
// wall-clock metrics are scaled by the run's reference (ref.go). Their
// bounds are the widest the contract allows, not the 0.10 and 0.15
// ISSUE 11 asked for: even scaled, ten runs of the same code spread
// them by up to 0.075 of their median on this host, and a bound should
// be three times that; see README.md, "Repeatability".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"op_ms_p50", "ms", "lower", bound(0.25)},
	{"op_ms_tail", "ms", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"live_heap_mb", "MB", "lower", bound(0.10)},
	{"alloc_kb_per_op", "kB", "lower", bound(0.10)},
}

// perLayer comes from the traced run. Each is measured by the
// benchmark timing calls into the layer's public functions; the README
// says which end-to-end metric each should move, and where.
var perLayer = []metricSpec{
	{Name: "gen.dataset_ms", Unit: "ms", Better: "lower"},
	{Name: "core.naive_detect_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.install_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.load_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.stmt.reset_flags_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.stmt.qsv_update_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.stmt.aux_truncate_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.stmt.qmv_insert_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.stmt.mv_update_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.counts_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.violations_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.violation_rows", Unit: "count", Better: "lower"},
	{Name: "detect.batch_reconcile", Unit: "ratio", Better: "lower"},
	{Name: "sqldriver.batch_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.prepare_cold_us", Unit: "us", Better: "lower"},
	{Name: "sqldb.prepare_warm_us", Unit: "us", Better: "lower"},
	{Name: "sqldb.explain_row_sources", Unit: "count", Better: "lower"},
	{Name: "detect.parallel_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "detect.sharded_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.sharded_speedup", Unit: "ratio", Better: "higher"},
	{Name: "detect.batch_linearity", Unit: "ratio", Better: "lower"},
	{Name: "detect.batch_tp_ratio", Unit: "ratio", Better: "lower"},
	{Name: "detect.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.raw_dml_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.maintain_share", Unit: "ratio", Better: "lower"},
	{Name: "detect.apply_scaling", Unit: "ratio", Better: "lower"},
	{Name: "detect.inc_vs_batch", Unit: "ratio", Better: "lower"},
	{Name: "detect.apply_delta64_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.check_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.epochs_per_op", Unit: "count", Better: "lower"},
	{Name: "sqldb.retired_bytes_max", Unit: "B", Better: "lower"},
	{Name: "sqldb.wal.apply_off_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.wal.apply_always_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "sqldb.wal.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "sqldb.wal.recovered_ok", Unit: "0/1", Better: "higher"},
	{Name: "server.session_create_ms", Unit: "ms", Better: "lower"},
	{Name: "server.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.elapsed_field_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.max_ms", Unit: "ms", Better: "lower"},
	{Name: "server.check_under_write_ms", Unit: "ms", Better: "lower"},
	{Name: "server.page_under_write_ms", Unit: "ms", Better: "lower"},
	{Name: "server.page_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.deadline_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.live_epochs_end", Unit: "count", Better: "lower"},
	{Name: "loadgen.write_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.reference_ms", Unit: "ms", Better: "lower"},
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	specs := make([]workloadSpec, len(workloads))
	for i, w := range workloads {
		specs[i] = workloadSpec{w.name, w.why}
	}
	return json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  specs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
}
