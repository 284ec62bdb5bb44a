package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload in untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"job_wall_s", "s"},
	{"goodput_edges_per_s", "1/s"},
	{"modeled_s", "s"},
	{"cpu_s_per_job", "s"},
	{"setup_s", "s"},
	{"peak_rss_bytes", "bytes"},
}

// phaseMetrics maps the short per-layer phase names onto the Fig. 6 phase
// names core records in Report.Phases.
var phaseMetrics = []struct{ short, phase string }{
	{"preprocess", "localPreprocessing"},
	{"min_edges", "graphSetup+minEdges"},
	{"contract", "contractComponents"},
	{"labels", "exchangeLabels+relabel"},
	{"redistribute", "redistribute"},
	{"filter", "partition+filter"},
	{"base_case", "basecase+redistributeMST"},
}

// perLayer are the metrics of single layers, reported by every workload in
// traced runs (--trace 1). A layer a workload bypasses reports 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"graphio.load_s", "s"},
		{"core.algo_s", "s"},
		{"core.rounds", "count"},
	}
	for _, ph := range phaseMetrics {
		ms = append(ms,
			metricDef{"core." + ph.short + ".wall_s", "s"},
			metricDef{"core." + ph.short + ".modeled_s", "s"},
			metricDef{"core." + ph.short + ".bytes", "bytes"})
	}
	return append(ms,
		metricDef{"localmst.run_s", "s"},
		metricDef{"dsort.sort_s", "s"},
		metricDef{"comm.bytes_per_job", "bytes"},
		metricDef{"comm.msgs_per_job", "count"},
		metricDef{"comm.supersteps_per_job", "count"},
		metricDef{"comm.in_collective_s", "s"},
		metricDef{"comm.ranks_observed", "count"},
		metricDef{"comm.allreduce_s", "s"},
		metricDef{"comm.alltoall_bytes_per_s", "bytes/s"},
		metricDef{"tcp.tx_bytes_per_job", "bytes"},
		metricDef{"tcp.rx_bytes_per_job", "bytes"},
		metricDef{"tcp.frames_per_job", "count"},
		metricDef{"tcp.tx_over_logical", "ratio"},
		metricDef{"enc.edge_encode_bytes_per_s", "bytes/s"},
		metricDef{"enc.edge_decode_bytes_per_s", "bytes/s"},
		metricDef{"serve.p50_s", "s"},
		metricDef{"serve.p99_s", "s"},
		metricDef{"serve.submit_p99_s", "s"},
		metricDef{"serve.queue_wait_p50_s", "s"},
		metricDef{"serve.queue_wait_p99_s", "s"},
		metricDef{"serve.run_p50_s", "s"},
		metricDef{"serve.batch_jobs_mean", "count"},
		metricDef{"serve.shed_frac", "ratio"},
		metricDef{"bench.gen_lag_p99_s", "s"},
		metricDef{"runtime.alloc_bytes_per_job", "bytes"},
		metricDef{"runtime.gc_cycles_per_job", "count"},
		metricDef{"arena.bytes", "bytes"},
		metricDef{"obs.trace_overhead", "ratio"},
	)
}()

// sizes are the instance and load sizes of a run.
type sizes struct {
	// n and m are the batch instance's target vertex and undirected edge
	// counts; p is the batch machine width.
	n, m uint64
	p    int
	// setupReps is how often an untraced batch run repeats its set-up.
	setupReps int
	// serveJobs is the number of distinct serve-small job graphs, each of
	// serveEdges edges; serveWarm jobs warm every fresh server.
	serveJobs, serveEdges, serveWarm int
	// serveMinRung is the least number of jobs the nominal open loop and
	// each ladder rung offer.
	serveMinRung int
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{n: 1 << 10, m: 1 << 13, p: 4, setupReps: 2,
			serveJobs: 16, serveEdges: 64, serveWarm: 20, serveMinRung: 40}
	}
	return sizes{n: 1 << 15, m: 1 << 19, p: 16, setupReps: 3,
		serveJobs: 256, serveEdges: 512, serveWarm: 200, serveMinRung: 1000}
}
