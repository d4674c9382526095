package main

// metricDef is one entry of BENCHMARK.json. The tables below are the source
// of that file's metric lists (bench_test.go holds the two together) and of
// the contract's result line.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workload is one entry of BENCHMARK.json's workloads: the name and the one
// line on why it exists.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workload{
	{"graph-rand", "bfs, cc, pagerank on a random graph, n=100k m=400k: a few fat rounds, so time is word access and Gather; the workload a faster read path must move"},
	{"graph-grid", "the same kernels on a 128x128 mesh: hundreds of thin rounds, so per-round cost (phases, spawn/join, parking) and O(diameter*m) cc dominate; a work-efficient algorithm moves only this one"},
	{"forkjoin", "prefixsum and mergesort over 4M words: one is scheduler-bound, the other accessor-bound and write-heavy, so a read-path gain paid for by writes or a coarser grain shows here"},
	{"graph-durable", "the kernels and 64-edge Resident.Apply commits on a region-file runtime (n=32k m=131k): every capsule pays an msync, so persistence-point and region-layout changes show here only"},
	{"serve-hot", "P closed-loop HTTP clients on a warm server, bfs 80 / cc 10 / pagerank 10 over 16 sources: every read is a memo hit and crosses no kernel; kernel changes must leave it alone"},
	{"serve-rw", "the same server, graph and mix with a 64-edge /mutate every 800th operation: each commit sends all 18 memo keys cold, so throughput is the per-epoch bill of apply plus cold runs"},
}

// workloadNames lists the workloads in report order.
var workloadNames = func() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}()

// contract is BENCHMARK.json.
type contract struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func theContract() contract {
	return contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// endToEnd are the metrics every workload reports from an untraced run. The
// contract wants one key set for all workloads, so they are stated in terms
// every workload has — an operation, a request — and each workload's own
// rows (bfs_ms, read_p99_ms, …) are reported beside them and, to the
// contract's driver, as per-layer metrics. See README.md, "Metrics".
var endToEnd = []metricDef{
	{"qps", "ops/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"tail_ms", "ms", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"rss_mb", "MB", lower, 0.20},
}

// checkBounds is what -check holds two runs of the same code to: the
// end-to-end bounds plus the bounds of each workload's own rows.
var checkBounds = func() map[string]float64 {
	bounds := map[string]float64{
		"bfs_ms": 0.20, "cc_ms": 0.20, "pagerank_ms": 0.20,
		"prefixsum_ms": 0.20, "mergesort_ms": 0.20,
		"read_p50_ms": 0.20, "read_p99_ms": 0.25, "mutate_p50_ms": 0.25,
		"fail_share": 0, // any increase
	}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	return bounds
}()

// worsening is how much worse second is than first, as a share of first, in
// the metric's own direction (qps is the one bounded metric where higher is
// better); for fail_share, whose good value is 0, the plain difference.
func worsening(name string, first, second float64) float64 {
	switch name {
	case "fail_share":
		return second - first
	case "qps":
		return (first - second) / first
	}
	return (second - first) / first
}

const (
	lower  = "lower"
	higher = "higher"
)

// perLayer are the metrics of single layers, produced by traced runs. The
// prefix is the layer (a module of this repository); names without one are a
// workload's own end-to-end rows.
var perLayer = concat(
	defs("ms", lower, "bfs_ms", "cc_ms", "pagerank_ms", "prefixsum_ms", "mergesort_ms",
		"read_p50_ms", "read_p99_ms", "mutate_p50_ms"),
	defs("ratio", lower, "fail_share", "trace.overhead_share"),
	defs("ms", lower, "calibration_ms"),

	defs("ms", lower, "baseline.bfs_ms", "baseline.cc_ms", "baseline.pagerank_ms",
		"baseline.prefixsum_ms", "baseline.sort_ms"),

	perKernel("graph.", "bfs", "cc", "pagerank"),
	defs("ms", lower, "graph.generate_ms", "graph.build_ms",
		"graph.apply_ms", "graph.msbfs1_ms", "graph.msbfs8_ms"),
	defs("ratio", lower, "graph.msbfs_amortization"),

	defs("ns", lower, "ppm.get_ns_word", "ppm.set_ns_word", "ppm.slice_ns_word",
		"ppm.setrange_ns_word", "ppm.gather_ns_word", "ppm.cam_ns",
		"ppm.load_ns_word", "ppm.snapshot_ns_word"),
	defs("us", lower, "ppm.run_empty_us"),
	perKernel("ppm.", "prefixsum", "mergesort"),

	defs("ns", lower, "native.spawn_join_ns", "native.spawn_join_pn_ns", "native.alloc_ns",
		"native.persist_point_ns"),
	defs("us", lower, "native.seq_phase_us"),
	defs("count", lower, "native.steal_tries", "native.steal_grabs", "native.parks",
		"native.alloc_refills", "native.heap_hw_words"),
	defs("ratio", higher, "native.steal_hit_share"),
	defs("ratio", lower, "native.fault_overhead"),

	defs("ns", lower, "durable.point_ns"),
	defs("us", lower, "durable.phase_commit_us", "durable.run_fixed_us",
		"durable.sync_async_us", "durable.sync_sync_us"),
	defs("ms", lower, "durable.create_ms", "durable.open_ms", "durable.recover_ms"),
	defs("B", lower, "durable.region_bytes"),
	defs("ratio", lower, "durable.bfs_overhead", "durable.cc_overhead",
		"durable.pagerank_overhead", "durable.apply_overhead"),
	defs("count", lower, "durable.persist_points"),

	defs("us", lower, "serve.submit_hit_us"),
	defs("ms", lower, "serve.submit_cold_bfs_ms", "serve.cold_overhead_ms", "serve.mutate_ms",
		"serve.mutate_overhead_ms", "serve.epoch_refill_ms", "serve.entry_build_ms"),
	defs("count", lower, "serve.runs", "serve.shed_429", "serve.shed_503"),
	defs("count", higher, "serve.mutations", "serve.epochs"),
	defs("ratio", higher, "serve.hit_share", "serve.coalesce_ratio"),

	defs("us", lower, "http.query_hit_us", "http.handler_us", "http.client_us",
		"http.overhead_us", "http.healthz_us"),

	defs("count", lower, "model.mergesort_work", "model.mergesort_work_f", "model.mergesort_capsules"),
	defs("ratio", lower, "model.fault_work_ratio"),
	defs("ms", lower, "model.sim_ms"),
)

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perKernel is the set every kernel gets from its control pass: the P=1
// median, the self-relative speedup (P=1 ÷ P), the distance to plain Go
// (P=1 ÷ baseline), and the capsules and words of one run.
func perKernel(layer string, kernels ...string) []metricDef {
	var out []metricDef
	for _, k := range kernels {
		out = append(out,
			metricDef{Name: layer + k + "_p1_ms", Unit: "ms", Better: lower},
			metricDef{Name: layer + k + "_speedup", Unit: "ratio", Better: higher},
			metricDef{Name: layer + k + "_vs_baseline", Unit: "ratio", Better: lower},
			metricDef{Name: layer + k + "_capsules", Unit: "count", Better: lower},
			metricDef{Name: layer + k + "_words", Unit: "count", Better: lower})
	}
	return out
}

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
