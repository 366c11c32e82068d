package main

// metricDef is one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. It is
	// also what two runs of the same code may differ by under -repeat.
	bound float64
	// exact marks the simulator's statistics: two runs at one seed must
	// report them bit for bit. (Their bound is not 0 because the driver
	// compares runs at different seeds, and they depend on the data.)
	exact bool
	// timed marks wall-clock and CPU times of the measured phase, which
	// drift with the machine; engine.block_spread_pct says by how much.
	timed bool
}

// Virtual time is reported in "vus", virtual microseconds, as the obs
// package's traces report "vns": it is a count made by the simulator,
// identical from run to run, not a wall-clock time.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_p05_ms", unit: "ms", better: "lower", bound: 0.25, timed: true},
	{name: "rows_per_s", unit: "rows/s", better: "higher", bound: 0.25, timed: true},
	{name: "cpu_p05_ms", unit: "ms", better: "lower", bound: 0.25, timed: true},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.04},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.02},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "sim_time_us_per_op", unit: "vus", better: "lower", bound: 0.01, exact: true},
	{name: "moved_bytes_per_op", unit: "bytes", better: "lower", bound: 0.08, exact: true},
	{name: "stored_bytes_per_row", unit: "bytes", better: "lower", bound: 0.02, exact: true},
}

var perLayerDefs = []metricDef{
	{name: "storage.scan_ms_per_op", unit: "ms", better: "lower"},
	{name: "storage.read_ns_per_segment", unit: "ns", better: "lower"},
	{name: "storage.unmarshal_us_per_segment", unit: "us", better: "lower"},
	{name: "storage.media_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "storage.shipped_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "storage.decoded_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "storage.segments_pruned_pct", unit: "%", better: "higher"},
	{name: "storage.append_ms_per_segment", unit: "ms", better: "lower"},
	{name: "storage.marshal_us_per_segment", unit: "us", better: "lower"},
	{name: "encoding.eval_ns_per_row", unit: "ns", better: "lower"},
	{name: "encoding.gather_ns_per_row", unit: "ns", better: "lower"},
	{name: "encoding.decode_ns_per_row", unit: "ns", better: "lower"},
	{name: "encoding.decode_allocs_per_segment", unit: "count", better: "lower"},
	{name: "encoding.encode_ns_per_row", unit: "ns", better: "lower"},
	{name: "encoding.checksum_ns_per_row", unit: "ns", better: "lower"},
	{name: "columnar.filter_ns_per_row", unit: "ns", better: "lower"},
	{name: "columnar.bytesize_ns_per_batch", unit: "ns", better: "lower"},
	{name: "expr.pred_ns_per_row", unit: "ns", better: "lower"},
	{name: "expr.agg_ns_per_row", unit: "ns", better: "lower"},
	{name: "expr.agg_allocs_per_row", unit: "count", better: "lower"},
	{name: "expr.agg_highcard_ns_per_row", unit: "ns", better: "lower"},
	{name: "exec.stages_ms_per_op", unit: "ms", better: "lower"},
	{name: "flow.run_ms_per_op", unit: "ms", better: "lower"},
	{name: "flow.overhead_ms_per_op", unit: "ms", better: "lower"},
	{name: "flow.port_ns_per_batch", unit: "ns", better: "lower"},
	{name: "flow.data_msgs_per_op", unit: "count", better: "lower"},
	{name: "flow.credit_msgs_per_op", unit: "count", better: "lower"},
	{name: "flow.credit_stalls_per_op", unit: "count", better: "lower"},
	{name: "plan.enumerate_us_per_op", unit: "us", better: "lower"},
	{name: "plan.variants", unit: "count", better: "higher"},
	{name: "sched.admit_release_us_per_op", unit: "us", better: "lower"},
	{name: "core.executeplan_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.overhead_us_per_op", unit: "us", better: "lower"},
	{name: "core.volcano_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.volcano_allocs_per_op", unit: "count", better: "lower"},
	{name: "bufferpool.hit_pct", unit: "%", better: "higher"},
	{name: "core.encoded_vs_eager_wall_ratio", unit: "ratio", better: "lower"},
	{name: "core.encoded_vs_eager_sim_ratio", unit: "ratio", better: "lower"},
	{name: "core.workers2_wall_ratio", unit: "ratio", better: "higher"},
	{name: "fabric.proc_busy_us_per_op", unit: "vus", better: "lower"},
	{name: "fabric.cpu_busy_us_per_op", unit: "vus", better: "lower"},
	{name: "fabric.nic_busy_us_per_op", unit: "vus", better: "lower"},
	{name: "fabric.charge_ns_per_call", unit: "ns", better: "lower"},
	{name: "obs.tracing_overhead_pct", unit: "%", better: "lower"},
	{name: "engine.wall_p50_ms", unit: "ms", better: "lower"},
	{name: "engine.wall_tail_ms", unit: "ms", better: "lower"},
	{name: "engine.wall_tail_pct", unit: "%", better: "higher"},
	{name: "engine.samples", unit: "count", better: "higher"},
	{name: "engine.rows_per_s", unit: "rows/s", better: "higher"},
	{name: "engine.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "engine.block_spread_pct", unit: "%", better: "lower"},
	{name: "engine.host_calib_ms", unit: "ms", better: "lower"},
	{name: "engine.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "engine.gc_pause_ms_per_op", unit: "ms", better: "lower"},
	{name: "engine.harness_overhead_pct", unit: "%", better: "lower"},
}
