package main

import (
	"context"
	"fmt"
	"net"
	"slices"
	"time"
	"unsafe"

	"kamsta"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/dsort"
	"kamsta/internal/enc"
	"kamsta/internal/graph"
	"kamsta/internal/localmst"
	"kamsta/internal/transport/tcp"
)

// layerWorld is a comm world for direct calls into the layers: in-process,
// or split over one loopback TCP connection like the TCP workload's
// machine (this process leads the lower half of the ranks and also hosts
// the follower half).
type layerWorld struct {
	leader, follower *comm.World
	lt               *tcp.Leader
	f                *tcp.Follower
}

func newLayerWorld(p int, distributed bool) (*layerWorld, error) {
	if !distributed {
		w := comm.NewWorld(p, comm.WithThreads(1))
		w.Start()
		return &layerWorld{leader: w}, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	type accepted struct {
		f   *tcp.Follower
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			acc <- accepted{err: err}
			return
		}
		f, _, err := tcp.AcceptFollower(conn, nil)
		acc <- accepted{f, err}
	}()
	cm := comm.DefaultCostModel()
	lt, err := tcp.NewLeader(tcp.LeaderConfig{
		P: p, LocalRanks: (p + 1) / 2, Workers: []string{lis.Addr().String()}, Threads: 1,
		Alpha: cm.Alpha, Beta: cm.Beta, Compute: cm.Compute,
	})
	if err != nil {
		lis.Close()
		<-acc
		return nil, err
	}
	a := <-acc
	if a.err != nil {
		lt.Close()
		return nil, a.err
	}
	lw := &layerWorld{lt: lt, f: a.f,
		leader:   comm.NewWorld(p, comm.WithTransport(lt), comm.WithThreads(1)),
		follower: comm.NewWorld(p, comm.WithTransport(a.f), comm.WithThreads(1)),
	}
	lw.leader.Start()
	lw.follower.Start()
	return lw, nil
}

// run executes one SPMD body on every rank and waits for all of them.
func (lw *layerWorld) run(body func(c *comm.Comm)) error {
	if lw.follower == nil {
		return lw.leader.RunJob(context.Background(), nil, body)
	}
	ferr := make(chan error, 1)
	go func() { ferr <- lw.follower.RunJob(context.Background(), nil, body) }()
	err := lw.leader.RunJob(context.Background(), nil, body)
	if e := <-ferr; err == nil {
		err = e
	}
	return err
}

func (lw *layerWorld) close() {
	lw.leader.Close()
	if lw.lt != nil {
		lw.lt.Close()
	}
	if lw.follower != nil {
		lw.follower.Close()
		lw.f.Close()
	}
}

// timed runs body on every rank between two barriers and returns rank 0's
// wall time for it: the layer call's makespan.
func (lw *layerWorld) timed(body func(c *comm.Comm)) (float64, error) {
	var d time.Duration
	err := lw.run(func(c *comm.Comm) {
		comm.Barrier(c)
		t := time.Now()
		body(c)
		comm.Barrier(c)
		if c.Rank() == 0 {
			d = time.Since(t)
		}
	})
	return d.Seconds(), err
}

// layerReps is how often each direct layer call repeats (median reported).
const layerReps = 3

// measureLayers times direct calls into the layers on the workload's
// instance: ingest (graphio.Load when fromFile), localmst.Run on every PE's
// slice, dsort.Sort, the core algorithm, comm.Allreduce, comm.RawAlltoall
// and the edge codec. all is the instance's directed edge list and want its
// reference answer.
func (b *bench) measureLayers(lw *layerWorld, ingest func(c *comm.Comm) ([]graph.Edge, *graph.Layout, error),
	fromFile bool, all []graph.Edge, alg kamsta.Algorithm, opt core.Options, want answer) error {
	p := lw.leader.P()
	edges := make([][]graph.Edge, p)
	layouts := make([]*graph.Layout, p)
	errs := make([]error, p)
	load := func(c *comm.Comm) {
		edges[c.Rank()], layouts[c.Rank()], errs[c.Rank()] = ingest(c)
	}
	var loads []float64
	for r := 0; r < layerReps; r++ {
		d, err := lw.timed(load)
		if err == nil {
			err = errs[0]
		}
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		loads = append(loads, d)
	}
	if fromFile {
		b.set("graphio.load_s", median(loads))
	} else {
		b.set("graphio.load_s", 0) // in-memory edge lists bypass graphio
	}

	// localmst.Run on each PE's slice with core's locality rule, one PE
	// after another: the summed seconds are the layer's CPU time per job.
	// Like core, skip it when preprocessing is off or the input's local
	// edge fraction is under the §VI-B gate: the job never calls it then.
	isLocal := func(r int) func(graph.VID) bool {
		return func(v graph.VID) bool {
			first, last := layouts[r].SharedSpan(v)
			return first == last && first == r
		}
	}
	local := 0
	for r := 0; r < p; r++ {
		loc := isLocal(r)
		for _, e := range edges[r] {
			if loc(e.U) && loc(e.V) {
				local++
			}
		}
	}
	gate := opt.PreprocessMinLocalFrac
	if gate == 0 {
		gate = 0.10 // core's default
	}
	lsum := 0.0
	if opt.LocalPreprocessing && float64(local) >= gate*float64(len(all)) {
		for r := 0; r < p; r++ {
			t := time.Now()
			localmst.Run(edges[r], isLocal(r), localmst.Config{Filter: opt.LocalFilter, HashDedup: opt.HashDedup})
			lsum += time.Since(t).Seconds()
		}
	}
	b.set("localmst.run_s", lsum)

	// dsort.Sort by graph.KeyLex of the instance dealt round-robin, so
	// every PE holds a sample of the whole key range (as REDISTRIBUTE's
	// input does) and the sort must move (p-1)/p of the edges.
	deal := make([][]graph.Edge, p)
	for i, e := range all {
		deal[i%p] = append(deal[i%p], e)
	}
	var sorts []float64
	for r := 0; r < layerReps; r++ {
		work := make([][]graph.Edge, p)
		for i := range deal {
			work[i] = slices.Clone(deal[i])
		}
		total := 0
		d, err := lw.timed(func(c *comm.Comm) {
			out := dsort.Sort(c, work[c.Rank()], dsort.ByKey(graph.LessLex, graph.KeyLex), opt.Sort)
			n := comm.Allreduce(c, len(out), func(a, b int) int { return a + b })
			if c.Rank() == 0 {
				total = n
			}
		})
		if err != nil {
			return fmt.Errorf("dsort: %w", err)
		}
		b.check(total == len(all), "dsort kept %d of %d edges", total, len(all))
		sorts = append(sorts, d)
	}
	b.set("dsort.sort_s", median(sorts))

	// One direct core call on freshly ingested input, checked against the
	// reference.
	var res core.Result
	var algo time.Duration
	err := lw.run(func(c *comm.Comm) {
		e, l, _ := ingest(c)
		comm.Barrier(c)
		t := time.Now()
		var r core.Result
		if alg == kamsta.AlgFilterBoruvka {
			r = core.FilterBoruvka(c, e, l, opt)
		} else {
			r = core.Boruvka(c, e, l, opt)
		}
		comm.Barrier(c)
		if c.Rank() == 0 {
			algo, res = time.Since(t), r
		}
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	b.check(res.TotalWeight == want.weight && res.NumEdges == want.edges,
		"direct core call: weight/edges %d/%d, want %d/%d", res.TotalWeight, res.NumEdges, want.weight, want.edges)
	b.set("core.algo_s", algo.Seconds())
	b.set("core.rounds", float64(res.Rounds))

	// comm.Allreduce of one int, timed per call on rank 0.
	calls := 2000
	if b.opt.smoke {
		calls = 200
	}
	ar := make([]float64, calls)
	err = lw.run(func(c *comm.Comm) {
		comm.Barrier(c)
		for k := range ar {
			t := time.Now()
			comm.Allreduce(c, 1, func(a, b int) int { return a + b })
			if c.Rank() == 0 {
				ar[k] = time.Since(t).Seconds()
			}
		}
	})
	if err != nil {
		return fmt.Errorf("allreduce: %w", err)
	}
	b.set("comm.allreduce_s", median(ar))

	// comm.RawAlltoall of every PE's slice cut into p buckets: the whole
	// instance crosses the exchange once.
	var a2a []float64
	for r := 0; r < layerReps; r++ {
		d, err := lw.timed(func(c *comm.Comm) {
			mine := edges[c.Rank()]
			buckets := make([][]graph.Edge, p)
			for i := range buckets {
				buckets[i] = mine[i*len(mine)/p : (i+1)*len(mine)/p]
			}
			comm.RawAlltoall(c, buckets)
		})
		if err != nil {
			return fmt.Errorf("alltoall: %w", err)
		}
		a2a = append(a2a, d)
	}
	volume := float64(len(all)) * float64(unsafe.Sizeof(graph.Edge{}))
	b.set("comm.alltoall_bytes_per_s", volume/median(a2a))

	// The wire codec for edge slices, on the whole instance.
	cd := enc.CodecFor[[]graph.Edge]()
	var encs, decs []float64
	var buf []byte
	for r := 0; r < layerReps; r++ {
		t := time.Now()
		buf = cd.Append(buf[:0], all)
		encs = append(encs, time.Since(t).Seconds())
		t = time.Now()
		v, _, err := cd.Decode(buf)
		decs = append(decs, time.Since(t).Seconds())
		got, _ := v.([]graph.Edge)
		b.check(err == nil && slices.Equal(got, all), "edge codec round trip: %v", err)
	}
	b.set("enc.edge_encode_bytes_per_s", float64(len(buf))/median(encs))
	b.set("enc.edge_decode_bytes_per_s", float64(len(buf))/median(decs))
	return nil
}
