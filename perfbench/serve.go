package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"kamsta"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/dsort"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/serve"
)

const (
	serveTenant = "bench"
	// serveNominal is the open-loop rate the latency metrics are taken at;
	// serveNominalShare is the share of the run's seconds spent there.
	serveNominal      = 500.0
	serveNominalShare = 0.35
	// serveSingleShare of the run's seconds runs jobs one at a time, back
	// to back: the phase the timed end-to-end metrics come from.
	serveSingleShare = 0.50
	// serveStep is the rate ladder's step above the nominal rate.
	serveStep = 250.0
	// serveLimit is the p99 latency limit a ladder rung must meet.
	serveLimit = 0.020
	// serveMaxRungs caps the climb.
	serveMaxRungs = 24
)

// serveJob is one small edge-list job and its reference answer.
type serveJob struct {
	edges []kamsta.InputEdge
	want  answer
}

// makeServeJobs builds count connected random graphs of m edges over
// 2+m/3 labels: a spanning path through a random permutation plus random
// extra edges, weights in [1, 1000].
func makeServeJobs(seed uint64, count, m int) []serveJob {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	jobs := make([]serveJob, count)
	for i := range jobs {
		n := 2 + m/3
		perm := rng.Perm(n)
		es := make([]kamsta.InputEdge, 0, m)
		for k := 1; k < n; k++ {
			es = append(es, kamsta.InputEdge{U: uint64(perm[k-1] + 1), V: uint64(perm[k] + 1), W: rng.Uint32N(1000) + 1})
		}
		for len(es) < m {
			u, v := rng.IntN(n)+1, rng.IntN(n)+1
			if u != v {
				es = append(es, kamsta.InputEdge{U: uint64(u), V: uint64(v), W: rng.Uint32N(1000) + 1})
			}
		}
		jobs[i] = serveJob{edges: es, want: kruskalAnswer(graphEdges(es), false)}
	}
	return jobs
}

// graphEdges converts input edges to working edges, one direction each.
func graphEdges(es []kamsta.InputEdge) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.NewEdge(e.U, e.V, e.W)
	}
	return out
}

// newServer builds the workload's job server: two warm 2-PE machines, one
// tenant, batching of up to 8 small jobs.
func newServer(reg *kamsta.Metrics, tr *kamsta.Trace) (*serve.Server, error) {
	return serve.New(serve.Config{
		Pool:    []serve.PoolShape{{PEs: 2, Threads: 1, Count: 2}},
		Tenants: []serve.TenantConfig{{Name: serveTenant, Weight: 1}},
		Batch:   serve.BatchConfig{MaxJobs: 8, MaxEdges: 65536},
		Metrics: reg,
		Trace:   tr,
	})
}

func (b *bench) request(j serveJob) serve.Request {
	return serve.Request{Tenant: serveTenant, Algorithm: kamsta.AlgBoruvka, Seed: b.opt.seed, Edges: j.edges}
}

// submitWait submits one job, waits for its result and drops it from the
// server's result registry, as a client that has consumed its result does
// (over HTTP, a DELETE). Without that, every finished job stays retained
// for the server's ResultTTL and the live heap grows with the run's length.
func submitWait(s *serve.Server, req serve.Request) outcome {
	j, err := s.Submit(req)
	if err != nil {
		return outcome{err: err}
	}
	rep, err := j.Wait(context.Background())
	s.Forget(j.ID())
	return outcomeOf(rep, err, false)
}

// outcome is what the benchmark keeps of one serve job: the checked
// fields rather than the report, so its own memory stays flat however long
// a run is. Traced runs keep the report too.
type outcome struct {
	got     answer
	err     error
	modeled float64
	rep     *kamsta.Report
}

func outcomeOf(rep *kamsta.Report, err error, keep bool) outcome {
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{got: reportAnswer(rep), modeled: rep.ModeledSeconds}
	if keep {
		o.rep = rep
	}
	return o
}

// checkOutcome counts one serve job and checks it against want.
func (b *bench) checkOutcome(what string, o outcome, want answer) bool {
	if o.err != nil {
		return b.check(false, "%s: %v", what, o.err)
	}
	return b.checkAnswer(what, o.got, want)
}

// warm runs n jobs through s in a closed loop of two submitters and checks
// every result.
func (b *bench) warm(s *serve.Server, jobs []serveJob, n int) {
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				outs[i] = submitWait(s, b.request(jobs[i%len(jobs)]))
			}
		}()
	}
	wg.Wait()
	for i, o := range outs {
		b.checkOutcome("warm-up job", o, jobs[i%len(jobs)].want)
	}
}

// rung is one open-loop run at a fixed rate.
type rung struct {
	rate    float64
	lat     []float64 // per offered job, from its due time; +Inf when missed
	submit  []float64 // seconds spent inside Server.Submit
	lag     []float64 // how late the generator submitted
	modeled []float64
	reports []*kamsta.Report // kept runs only
	refused int
	cpu     float64
}

// passes reports whether the rung met the latency limit without a growing
// backlog: p99 within the limit, and so is the median of its last tenth.
func (r *rung) passes() bool {
	tail := r.lat[len(r.lat)-max(len(r.lat)/10, 1):]
	return quantile(r.lat, 0.99) <= serveLimit && median(tail) <= serveLimit
}

// openLoop offers n jobs at rate on an absolute Poisson schedule drawn
// from rng: job i is due at start + its precomputed offset, and its latency
// runs from that due time, so a late generator or a stalled server is
// charged to every job it delays. Results are checked after the rung
// drains; refusals count as misses (and as failures when failRefused).
// keep keeps every job's report.
func (b *bench) openLoop(s *serve.Server, jobs []serveJob, first int, rate float64, n int,
	rng *rand.Rand, failRefused, keep bool) *rung {
	offs := make([]time.Duration, n)
	t := 0.0
	for i := range offs {
		t += rng.ExpFloat64() / rate
		offs[i] = time.Duration(t * float64(time.Second))
	}
	r := &rung{rate: rate, lat: make([]float64, n), submit: make([]float64, n), lag: make([]float64, n)}
	outs := make([]outcome, n)
	refused := make([]bool, n)
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuSeconds()
	for i := range offs {
		due := start.Add(offs[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		r.lag[i] = now.Sub(due).Seconds()
		j, err := s.Submit(b.request(jobs[(first+i)%len(jobs)]))
		r.submit[i] = time.Since(now).Seconds()
		if err != nil {
			refused[i], outs[i] = true, outcome{err: err}
			r.lat[i] = math.Inf(1)
			continue
		}
		wg.Add(1)
		go func(i int, j *serve.Job, due time.Time) {
			defer wg.Done()
			rep, err := j.Wait(context.Background())
			r.lat[i] = time.Since(due).Seconds()
			s.Forget(j.ID())
			outs[i] = outcomeOf(rep, err, keep)
		}(i, j, due)
	}
	wg.Wait()
	r.cpu = cpuSeconds() - cpu0
	for i, o := range outs {
		if refused[i] {
			r.refused++
			if failRefused {
				b.check(false, "job refused at %.0f jobs/s: %v", rate, o.err)
			}
			continue
		}
		if !b.checkOutcome("job", o, jobs[(first+i)%len(jobs)].want) {
			r.lat[i] = math.Inf(1)
			continue
		}
		r.modeled = append(r.modeled, o.modeled)
		if keep {
			r.reports = append(r.reports, o.rep)
		}
	}
	return r
}

// single submits jobs one at a time, back to back, for secs seconds (at
// least 100 jobs) and checks every result. It returns each job's wall time
// from Submit to its result, the unloaded latency of the whole serve path,
// and the loop's elapsed and process CPU seconds.
func (b *bench) single(s *serve.Server, jobs []serveJob, secs float64) (lat []float64, elapsed, cpu float64) {
	start, cpu0 := time.Now(), cpuSeconds()
	stop := start.Add(time.Duration(secs * float64(time.Second)))
	for k := 0; k < 100 || time.Now().Before(stop); k++ {
		t := time.Now()
		o := submitWait(s, b.request(jobs[k%len(jobs)]))
		lat = append(lat, time.Since(t).Seconds())
		if !b.checkOutcome("single job", o, jobs[k%len(jobs)].want) {
			break
		}
	}
	return lat, time.Since(start).Seconds(), cpuSeconds() - cpu0
}

// climb runs the open-loop rate ladder above the nominal rung, one step
// at a time until a rung misses the latency limit, and returns the highest
// rate that met it (0 when the nominal rung missed) with a line per rung.
// Refusals above the nominal rate are misses, not failures.
func (b *bench) climb(s *serve.Server, jobs []serveJob, nominal *rung, n int, rng *rand.Rand) (float64, []string) {
	var ladder []string
	note := func(r *rung) bool {
		ok := r.passes()
		ladder = append(ladder, fmt.Sprintf("%.0f/s jobs=%d p50=%.4fs p99=%.4fs refused=%d pass=%v",
			r.rate, len(r.lat), median(r.lat), quantile(r.lat, 0.99), r.refused, ok))
		return ok
	}
	if !note(nominal) {
		return 0, ladder
	}
	best := serveNominal
	for k := 1; k <= serveMaxRungs; k++ {
		rate := serveNominal + serveStep*float64(k)
		if !note(b.openLoop(s, jobs, k*n, rate, n, rng, false, false)) {
			break
		}
		best = rate
	}
	return best, ladder
}

// runServe runs the serve-small workload: offer the nominal open-loop
// rate, time jobs one at a time, and climb the rate ladder, each phase on
// a freshly set-up server (server plus warm-up jobs). The open-loop
// latencies and the ladder are recorded in the environment, not reported
// as metrics: host contention moves them more than any bound allows (see
// README.md).
func runServe(b *bench) error {
	sz, seed := b.sz, b.opt.seed
	jobs := makeServeJobs(seed, sz.serveJobs, sz.serveEdges)
	b.env["pool"] = "2x1:2"
	b.env["job_edges"] = sz.serveEdges
	b.env["job_graphs"] = sz.serveJobs
	b.env["nominal_rate"] = serveNominal
	if err := b.runGolden(); err != nil {
		return err
	}
	// setUp replaces s by a freshly built and warmed server and records
	// how long that took.
	var s *serve.Server
	var setups []float64
	setUp := func() error {
		if s != nil {
			s.Close()
		}
		t := time.Now()
		var err error
		if s, err = newServer(nil, nil); err != nil {
			return err
		}
		b.warm(s, jobs, sz.serveWarm)
		setups = append(setups, time.Since(t).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 0x0be1))
	nn := max(sz.serveMinRung, int(serveNominalShare*b.opt.seconds*serveNominal))
	b.env["nominal_jobs"] = nn

	if !b.opt.trace {
		// A fresh set-up before each phase spreads the set-ups over the
		// run, as the batch workloads do.
		nominal := b.openLoop(s, jobs, 0, serveNominal, nn, rng, true, false)
		if err := setUp(); err != nil {
			return err
		}
		lat, elapsed, cpu := b.single(s, jobs, serveSingleShare*b.opt.seconds)
		if err := setUp(); err != nil {
			return err
		}
		// The ladder deliberately overloads the server; its queues are not
		// part of the workload's footprint.
		rss := peakRSS()
		maxRate, ladder := b.climb(s, jobs, nominal, sz.serveMinRung, rng)
		s.Close()
		b.env["ladder"] = ladder
		b.env["latency_limit_p99_s"] = serveLimit
		b.env["max_rate_jobs_per_s"] = maxRate
		b.env["nominal_latency_s"] = map[string]float64{"p50": median(nominal.lat),
			"p90": quantile(nominal.lat, 0.9), "p95": quantile(nominal.lat, 0.95),
			"p99": quantile(nominal.lat, 0.99), "max": quantile(nominal.lat, 1)}
		b.env["nominal_gen_lag_p99_s"] = quantile(nominal.lag, 0.99)
		b.env["nominal_cpu_s_per_job"] = nominal.cpu / float64(nn)
		b.env["single_jobs"] = len(lat)
		b.env["setups_s"] = rounded(setups)
		b.set("job_wall_s", segmentQuantile(lat, 0.5))
		b.set("goodput_edges_per_s", float64(len(lat)*2*sz.serveEdges)/elapsed)
		b.set("modeled_s", median(nominal.modeled))
		b.set("cpu_s_per_job", cpu/float64(len(lat)))
		b.set("setup_s", median(setups))
		b.set("peak_rss_bytes", rss)
		return nil
	}

	// Traced run: the nominal rung untraced (the overhead baseline), then
	// again on a server with the metrics registry and span trace on.
	base := b.openLoop(s, jobs, 0, serveNominal, nn, rng, true, false)
	s.Close()
	reg := kamsta.NewMetrics()
	s, err := newServer(reg, kamsta.NewTrace())
	if err != nil {
		return err
	}
	b.warm(s, jobs, sz.serveWarm)
	before := snap(reg)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr := b.openLoop(s, jobs, nn, serveNominal, nn, rng, true, true)
	runtime.ReadMemStats(&ms1)
	after := snap(reg)
	s.Close()
	done := float64(len(tr.reports))
	if done == 0 {
		return fmt.Errorf("no traced job completed")
	}
	b.setJobLayers(tr.reports, before, after, done)
	b.set("runtime.alloc_bytes_per_job", float64(ms1.TotalAlloc-ms0.TotalAlloc)/done)
	b.set("runtime.gc_cycles_per_job", float64(ms1.NumGC-ms0.NumGC)/done)
	b.set("obs.trace_overhead", median(tr.lat)/median(base.lat))
	b.set("serve.p50_s", median(tr.lat))
	b.set("serve.p99_s", quantile(tr.lat, 0.99))
	b.set("serve.submit_p99_s", quantile(tr.submit, 0.99))
	b.set("serve.queue_wait_p50_s", histQuantile(before, after, "serve_queue_wait_seconds", 0.5))
	b.set("serve.queue_wait_p99_s", histQuantile(before, after, "serve_queue_wait_seconds", 0.99))
	var runs []float64
	for _, rep := range tr.reports {
		runs = append(runs, rep.WallSeconds) // a batch member reports its batch's run
	}
	b.set("serve.run_p50_s", median(runs))
	dispatches := after.histogram("serve_job_run_seconds").Count - before.histogram("serve_job_run_seconds").Count
	b.set("serve.batch_jobs_mean", done/float64(max(dispatches, 1)))
	b.set("serve.shed_frac", delta(before, after, "serve_jobs_rejected_total")/float64(nn))
	b.set("bench.gen_lag_p99_s", quantile(tr.lag, 0.99))

	// Direct layer calls on one job graph, ingested as the server ingests
	// edge lists: rank 0 feeds both directions, gen.Finish distributes.
	raw := make([]graph.Edge, 0, 2*len(jobs[0].edges))
	for _, e := range jobs[0].edges {
		raw = append(raw, graph.NewEdge(e.U, e.V, e.W), graph.NewEdge(e.V, e.U, e.W))
	}
	ingest := func(c *comm.Comm) ([]graph.Edge, *graph.Layout, error) {
		var mine []graph.Edge
		if c.Rank() == 0 {
			mine = slices.Clone(raw)
		}
		e, l := gen.Finish(c, mine, dsort.Options{})
		return e, l, nil
	}
	lw, err := newLayerWorld(2, false)
	if err != nil {
		return err
	}
	defer lw.close()
	shares := make([][]graph.Edge, 2)
	if err := lw.run(func(c *comm.Comm) { shares[c.Rank()], _, _ = ingest(c) }); err != nil {
		return err
	}
	return b.measureLayers(lw, ingest, false, slices.Concat(shares...), kamsta.AlgBoruvka,
		core.Options{Seed: seed}, jobs[0].want)
}
