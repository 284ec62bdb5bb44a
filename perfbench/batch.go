package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"kamsta"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/graphio"
)

// batchSpec is one batch workload: a generated instance written to a file
// and computed repeatedly on a warm Machine.
type batchSpec struct {
	name   string
	family gen.Family
	alg    kamsta.Algorithm
	tcp    bool // one in-process worker hosts the upper half of the ranks
}

var (
	rggBoruvka    = batchSpec{"rgg2d-boruvka", gen.RGG2D, kamsta.AlgBoruvka, false}
	gnmFilter     = batchSpec{"gnm-filter", gen.GNM, kamsta.AlgFilterBoruvka, false}
	gnmBoruvkaTCP = batchSpec{"gnm-boruvka-tcp", gen.GNM, kamsta.AlgBoruvka, true}
)

// coreOptions are internal/bench's paper-series settings: preprocessing,
// local filter, hash dedup and parallel-edge dedup on, and the base case
// at a quarter of a PE's vertices.
func coreOptions(n uint64, p int) core.Options {
	return core.Options{
		LocalPreprocessing: true,
		LocalFilter:        true,
		HashDedup:          true,
		DedupParallel:      true,
		BaseCaseCap:        int(n/uint64(p))/4 + 2,
	}
}

// makeInstance generates spec on a p-PE world, as cmd/mstgen does, and
// returns every PE's share concatenated: the sorted directed edge list.
func makeInstance(spec gen.Spec, p int) ([]graph.Edge, error) {
	w := comm.NewWorld(p)
	w.Start()
	defer w.Close()
	chunks := make([][]graph.Edge, p)
	err := w.RunJob(context.Background(), nil, func(c *comm.Comm) {
		chunks[c.Rank()], _ = gen.Build(c, spec, dsort.Options{})
	})
	return slices.Concat(chunks...), err
}

// tcpWorker is an in-process kamsta.ServeWorker on a loopback listener.
type tcpWorker struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startWorker() (*tcpWorker, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	wk := &tcpWorker{addr: lis.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { wk.done <- kamsta.ServeWorker(ctx, lis, kamsta.WorkerOptions{}) }()
	return wk, nil
}

// stop shuts the worker down and waits for it to return.
func (wk *tcpWorker) stop() error {
	wk.cancel()
	return <-wk.done
}

// batchMachine is a warm Machine plus, for the TCP workload, its worker.
type batchMachine struct {
	m  *kamsta.Machine
	wk *tcpWorker
}

func newBatchMachine(ws batchSpec, p int, reg *kamsta.Metrics) (*batchMachine, error) {
	cfg := kamsta.MachineConfig{PEs: p, Threads: 1, Metrics: reg}
	bm := &batchMachine{}
	if ws.tcp {
		wk, err := startWorker()
		if err != nil {
			return nil, err
		}
		bm.wk = wk
		cfg.Transport, cfg.Workers = kamsta.TransportTCP, []string{wk.addr}
	}
	m, err := kamsta.NewMachine(cfg)
	if err != nil {
		if bm.wk != nil {
			bm.wk.stop()
		}
		return nil, err
	}
	bm.m = m
	return bm, nil
}

// close releases the machine, then its worker.
func (bm *batchMachine) close() error {
	bm.m.Close()
	if bm.wk != nil {
		return bm.wk.stop()
	}
	return nil
}

// A batch run cycles its jobs through instancesPerRun generated instances
// and jobSeeds job seeds per instance. Modeled time, and with it the work,
// moves with both: the job seed drives Filter-Borůvka's pivot sampling and
// the sorters' splitter sampling, and on GNM Filter-Borůvka's modeled time
// is bimodal across instances. Averaging over the cases keeps one draw
// from setting a run's figures.
const (
	instancesPerRun = 2
	jobSeeds        = 2
)

// instance is one generated input: its directed edges, reference answer
// and file.
type instance struct {
	all  []graph.Edge
	want answer
	path string
}

// jobCase is one (instance, job seed) pair and the modeled bits its jobs
// must reproduce.
type jobCase struct {
	inst *instance
	seed uint64
	pin  modeledPin
}

// jobMix is a batch run's job stream: shared run options and the cycle of
// cases.
type jobMix struct {
	base  []kamsta.RunOption
	cases []*jobCase
	next  int
}

// modeled is the mean pinned modeled time over the cases run so far.
func (jm *jobMix) modeled() float64 {
	sum, n := 0.0, 0
	for _, jc := range jm.cases {
		if jc.pin.set {
			sum += jc.pin.seconds()
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// runJob computes the cycle's next job on m, checks it against its case's
// answer and pinned bits, and returns the report with its wall seconds.
func (b *bench) runJob(m *kamsta.Machine, jm *jobMix, what string, extra ...kamsta.RunOption) (*kamsta.Report, float64, bool) {
	jc := jm.cases[jm.next%len(jm.cases)]
	jm.next++
	o := append(slices.Clone(jm.base), kamsta.WithSeed(jc.seed))
	t := time.Now()
	rep, err := m.Compute(context.Background(), kamsta.FromFile(jc.inst.path), append(o, extra...)...)
	wall := time.Since(t).Seconds()
	return rep, wall, b.checkReport(what, rep, err, jc.inst.want, &jc.pin)
}

// jobRun is what a timed loop of jobs measured.
type jobRun struct {
	walls   []float64
	reports []*kamsta.Report // traced loops only
	edges   int              // directed input edges over all jobs
	elapsed float64
	cpu     float64
}

// add appends another loop's measurements to jr.
func (jr *jobRun) add(o jobRun) {
	jr.walls = append(jr.walls, o.walls...)
	jr.reports = append(jr.reports, o.reports...)
	jr.edges += o.edges
	jr.elapsed += o.elapsed
	jr.cpu += o.cpu
}

// measureJobs runs jobs back to back for secs seconds (at least one) and
// checks every result. Traced loops record each job's spans into a fresh
// trace and keep the reports.
func (b *bench) measureJobs(m *kamsta.Machine, jm *jobMix, secs float64, traced bool) jobRun {
	var jr jobRun
	start, cpu0 := time.Now(), cpuSeconds()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	for len(jr.walls) == 0 || time.Now().Before(deadline) {
		var extra []kamsta.RunOption
		if traced {
			extra = append(extra, kamsta.WithTrace(kamsta.NewTrace()))
		}
		rep, wall, ok := b.runJob(m, jm, "job", extra...)
		jr.walls = append(jr.walls, wall)
		if !ok {
			break
		}
		jr.edges += rep.InputEdges
		if traced {
			jr.reports = append(jr.reports, rep)
		}
	}
	jr.elapsed, jr.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return jr
}

// writeInstances writes every instance's file.
func writeInstances(insts []*instance) error {
	for _, in := range insts {
		if err := graphio.WriteFile(in.path, graphio.FormatKamsta, in.all); err != nil {
			return err
		}
	}
	return nil
}

// runBatch runs one batch workload: generate the instances and their
// Kruskal references, set up (write the files, build the machine, one
// warm-up job) several times, then time jobs for the run's seconds.
func runBatch(b *bench, ws batchSpec) error {
	sz, seed := b.sz, b.opt.seed
	copts := coreOptions(sz.n, sz.p)
	jm := &jobMix{base: []kamsta.RunOption{kamsta.WithAlgorithm(ws.alg), kamsta.WithCoreOptions(copts)}}
	var insts []*instance
	var labels []string
	for i := 0; i < instancesPerRun; i++ {
		spec := gen.Spec{Family: ws.family, N: sz.n, M: sz.m, Seed: seed*instancesPerRun + uint64(i) + 1}
		all, err := makeInstance(spec, sz.p)
		if err != nil {
			return fmt.Errorf("generating %s: %w", spec.Label(), err)
		}
		in := &instance{all: all, want: kruskalAnswer(all, true),
			path: filepath.Join(b.dir, fmt.Sprintf("%s-%d.kg", ws.name, i))}
		insts = append(insts, in)
		labels = append(labels, fmt.Sprintf("%s seed %d: %d directed edges", spec.Label(), spec.Seed, len(all)))
		for k := 0; k < jobSeeds; k++ {
			jm.cases = append(jm.cases, &jobCase{inst: in, seed: seed*jobSeeds + uint64(k) + 1})
		}
	}
	b.env["instances"] = labels
	b.env["pes"] = sz.p
	b.env["threads_per_pe"] = 1
	b.env["algorithm"] = string(ws.alg)
	if ws.tcp {
		b.env["transport"] = "tcp"
		b.env["workers"] = 1
	}
	if err := b.runGolden(); err != nil {
		return err
	}
	if ws.tcp {
		// One in-process job per case pins the modeled bits every TCP job
		// must reproduce: modeled clocks are transport-invariant.
		if err := writeInstances(insts); err != nil {
			return err
		}
		m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: sz.p, Threads: 1})
		if err != nil {
			return err
		}
		for range jm.cases {
			b.runJob(m, jm, "shm reference job")
		}
		m.Close()
	}

	// setUp replaces bm by a freshly set-up machine and records how long
	// that took. Every set-up starts from a collected heap returned to the
	// OS, as a fresh process would, so earlier garbage neither slows it nor
	// sets the run's peak RSS, and pages kept from earlier work do not
	// spare the first set-up the faults the others pay.
	var bm *batchMachine
	var setups []float64
	setUp := func() error {
		if bm != nil {
			if err := bm.close(); err != nil {
				return err
			}
			bm = nil
		}
		debug.FreeOSMemory()
		t := time.Now()
		if err := writeInstances(insts); err != nil {
			return err
		}
		m, err := newBatchMachine(ws, sz.p, nil)
		if err != nil {
			return err
		}
		bm = m
		b.runJob(bm.m, jm, "warm-up job")
		setups = append(setups, time.Since(t).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	sums := map[string]string{}
	for _, in := range insts {
		sum, err := fileSHA256(in.path)
		if err != nil {
			bm.close()
			return err
		}
		sums[filepath.Base(in.path)] = sum
	}
	b.env["instance_sha256"] = sums

	if !b.opt.trace {
		// The set-ups are spread over the run, each followed by an equal
		// share of the timed jobs, so that a passing slowdown of the host
		// sets neither the set-up time nor the job times alone.
		var jr jobRun
		for r := 0; r < sz.setupReps; r++ {
			if r > 0 {
				if err := setUp(); err != nil {
					return err
				}
			}
			jr.add(b.measureJobs(bm.m, jm, b.opt.seconds/float64(sz.setupReps), false))
		}
		if err := bm.close(); err != nil {
			return err
		}
		b.env["jobs"] = len(jr.walls)
		b.env["job_walls_s"] = rounded(jr.walls)
		b.env["setups_s"] = rounded(setups)
		b.set("job_wall_s", median(jr.walls))
		b.set("goodput_edges_per_s", float64(jr.edges)/jr.elapsed)
		b.set("modeled_s", jm.modeled())
		b.set("cpu_s_per_job", jr.cpu/float64(len(jr.walls)))
		b.set("setup_s", median(setups))
		b.set("peak_rss_bytes", peakRSS())
		return nil
	}

	// Traced run: half the time untraced (the overhead baseline), half with
	// the program's metrics registry and span trace on.
	base := b.measureJobs(bm.m, jm, b.opt.seconds/2, false)
	if err := bm.close(); err != nil {
		return err
	}
	reg := kamsta.NewMetrics()
	bm, err := newBatchMachine(ws, sz.p, reg)
	if err != nil {
		return err
	}
	b.runJob(bm.m, jm, "traced warm-up job")
	before := snap(reg)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr := b.measureJobs(bm.m, jm, b.opt.seconds/2, true)
	runtime.ReadMemStats(&ms1)
	after := snap(reg)
	if err := bm.close(); err != nil {
		return err
	}
	b.env["jobs"] = len(tr.walls)
	b.env["untraced_jobs"] = len(base.walls)
	n := float64(len(tr.walls))
	b.setJobLayers(tr.reports, before, after, n)
	b.set("runtime.alloc_bytes_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	b.set("runtime.gc_cycles_per_job", float64(ms1.NumGC-ms0.NumGC)/n)
	b.set("obs.trace_overhead", median(tr.walls)/median(base.walls))
	for _, m := range []string{"serve.p50_s", "serve.p99_s", "serve.submit_p99_s", "serve.queue_wait_p50_s", "serve.queue_wait_p99_s",
		"serve.run_p50_s", "serve.batch_jobs_mean", "serve.shed_frac", "bench.gen_lag_p99_s"} {
		b.set(m, 0) // no job server in a batch workload
	}

	// Direct layer calls on the first instance.
	lw, err := newLayerWorld(sz.p, ws.tcp)
	if err != nil {
		return err
	}
	defer lw.close()
	in := insts[0]
	ingest := func(c *comm.Comm) ([]graph.Edge, *graph.Layout, error) {
		return graphio.Load(c, in.path, graphio.Options{Format: graphio.FormatKamsta})
	}
	copts.Seed = jm.cases[0].seed
	return b.measureLayers(lw, ingest, true, in.all, ws.alg, copts, in.want)
}

// setJobLayers derives the per-layer metrics of traced jobs from their
// reports and from the registry's movement over the loop.
func (b *bench) setJobLayers(reports []*kamsta.Report, before, after snapshot, n float64) {
	for _, ph := range phaseMetrics {
		var wall, modeled, bytes []float64
		for _, rep := range reports {
			pt := rep.Phases[ph.phase] // zero when the job skipped the phase
			wall = append(wall, pt.Wall.Seconds())
			modeled = append(modeled, pt.Modeled)
			bytes = append(bytes, float64(pt.Stats.Bytes))
		}
		b.set("core."+ph.short+".wall_s", median(wall))
		b.set("core."+ph.short+".modeled_s", median(modeled))
		b.set("core."+ph.short+".bytes", median(bytes))
	}
	var bytes, msgs []float64
	for _, rep := range reports {
		bytes = append(bytes, float64(rep.Stats.Bytes))
		msgs = append(msgs, float64(rep.Stats.Messages))
	}
	logical := median(bytes)
	b.set("comm.bytes_per_job", logical)
	b.set("comm.msgs_per_job", median(msgs))

	// Substrate series exist per rank of this process's worlds; over TCP
	// that is only the leader's block, so per-rank figures divide by the
	// ranks observed, not by p.
	ranks := float64(max(ranksObserved(before, after), 1))
	b.set("comm.ranks_observed", ranks)
	b.set("comm.supersteps_per_job", delta(before, after, "kamsta_comm_supersteps_total")/ranks/n)
	b.set("comm.in_collective_s", delta(before, after, "kamsta_comm_barrier_wait_seconds_total")/ranks/n)
	b.set("arena.bytes", after.sum("kamsta_arena_bytes"))

	tx := delta(before, after, "transport_tcp_bytes_total", `dir="tx"`) / n
	b.set("tcp.tx_bytes_per_job", tx)
	b.set("tcp.rx_bytes_per_job", delta(before, after, "transport_tcp_bytes_total", `dir="rx"`)/n)
	b.set("tcp.frames_per_job", delta(before, after, "transport_tcp_frames_total")/n)
	ratio := 0.0
	if logical > 0 {
		ratio = tx / logical
	}
	b.set("tcp.tx_over_logical", ratio)
}
