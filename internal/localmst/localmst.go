// Package localmst implements the intra-PE shared-memory MST machinery of
// the paper: Borůvka rounds with min-priority-write minimum-edge selection
// (the building block taken from the GBBS algorithm of Dhulipala et al.
// [15]), specialized for two uses:
//
//   - Local preprocessing (§IV-A): contract local edges that are provably
//     MST edges using only locally available information. A vertex is only
//     contracted when its lightest incident edge overall is a local edge —
//     when the lightest edge is a cut edge, the vertex freezes and stays
//     for the distributed rounds.
//   - Shared-memory MSF: with every vertex local and no freezing, the same
//     rounds compute the full MSF of a graph on one node with t threads
//     (the single-node baseline of §VII-C).
//
// It also provides the engineering refinements of §VI-B: the hash-table
// based removal of parallel edges, and a one-level variant of the recursive
// edge filtering applied before contraction.
package localmst

import (
	"slices"

	"kamsta/internal/graph"
	"kamsta/internal/par"
	"kamsta/internal/radix"
)

// Config controls a local contraction run.
type Config struct {
	// Pool provides intra-PE threads (nil = sequential).
	Pool *par.Pool
	// Filter enables the §VI-B edge-filtering enhancement: the edge set is
	// partitioned at a pivot weight, the light part is contracted first,
	// and heavy intra-component edges are dropped before a second pass.
	Filter bool
	// FilterThreshold is the edge count above which filtering activates
	// (default 4096).
	FilterThreshold int
	// HashDedup selects the hash-table parallel-edge removal (§VI-B)
	// instead of pure sorting.
	HashDedup bool
}

func (c Config) withDefaults() Config {
	if c.Pool == nil {
		c.Pool = par.NewPool(1)
	}
	if c.FilterThreshold <= 0 {
		c.FilterThreshold = 4096
	}
	return c
}

// Result of a local contraction.
type Result struct {
	// MSTEdges are the identified MST edges. Their U/V fields are working
	// labels; TB and ID still identify the original edge.
	MSTEdges []graph.Edge
	// Verts lists every eligible (isLocal) vertex in ascending order, and
	// Roots is aligned with it: Roots[i] is the component root label of
	// Verts[i] (identity for frozen roots). The dense pair replaces the
	// former map so callers iterate deterministically and look labels up by
	// binary search.
	Verts []graph.VID
	Roots []graph.VID
	// Remaining holds the surviving edges, endpoints relabeled to component
	// roots, self-loops removed, parallel edges reduced to the lightest,
	// sorted lexicographically.
	Remaining []graph.Edge
	// Rounds is the number of Borůvka rounds executed.
	Rounds int
	// Work is the total number of edge touches across all rounds (the
	// rounds compact the edge set, so Work is far below m·Rounds on
	// contractible graphs). Callers use it for modeled-cost accounting.
	Work int
}

// Run contracts the graph induced by edges as far as the locality rule
// allows. isLocal says whether a vertex may be contracted on this PE (for
// preprocessing: local and not shared; for a single-node MSF: always true).
// Non-local endpoints keep their labels; edges to them freeze their source
// component when they are its lightest incident edge.
//
// Every endpoint is mapped to its dense vertex index once, when the input is
// encoded; the rounds then index arrays directly, and only the MST edges and
// the surviving edges are decoded back to labels.
func Run(edges []graph.Edge, isLocal func(graph.VID) bool, cfg Config) Result {
	cfg = cfg.withDefaults()
	st, work := newState(edges, isLocal)
	res := Result{}
	if cfg.Filter && len(work) > cfg.FilterThreshold {
		light, heavy := st.splitAtMedianWeight(work)
		work = st.contract(light, cfg, &res)
		// Filter heavy edges through the labels achieved so far, then
		// finish on the union.
		work = append(work, st.relabel(heavy, cfg.Pool)...)
	}
	work = st.contract(work, cfg, &res)

	remaining := make([]graph.Edge, len(work))
	for k, e := range work {
		remaining[k] = st.decode(e)
	}
	res.Remaining = removeParallel(remaining, cfg)
	res.Verts, res.Roots = st.labels()
	return res
}

// wedge is a working edge: its endpoints as dense vertex indices (-1 for a
// non-eligible endpoint, whose label stays in the input edge), its weight
// class, and the index of the input edge it came from (24 bytes, against
// the 40 of a graph.Edge).
type wedge struct {
	u, v int32
	w    graph.Weight
	in   uint32
	tb   uint64
}

// pick is a component's choice in one round.
type pick struct {
	target int32 // dense root of the chosen local neighbor, -1 = freeze
	edge   uint32
}

// state tracks the dense component structure over the eligible vertices.
type state struct {
	in     []graph.Edge // input edges: non-eligible labels and IDs
	verts  []graph.VID  // sorted distinct eligible vertices
	parent []int32      // dense parent pointers (roots: parent[i] == i)
	frozen []bool       // component may no longer contract
	slots  *par.MinIndex
	picks  []pick
	pairs  map[uint64]int32 // reduceParallelPairs' table, reused per round
}

// newState collects the eligible vertices and encodes every input edge.
func newState(edges []graph.Edge, isLocal func(graph.VID) bool) (*state, []wedge) {
	cand := make([]graph.VID, 0, 2*len(edges))
	for _, e := range edges {
		if isLocal(e.U) {
			cand = append(cand, e.U)
		}
		if isLocal(e.V) {
			cand = append(cand, e.V)
		}
	}
	st := &state{in: edges, pairs: map[uint64]int32{}}
	idx := st.index(cand)
	n := len(st.verts)
	st.parent = make([]int32, n)
	st.frozen = make([]bool, n)
	st.slots = par.NewMinIndex(n)
	st.picks = make([]pick, n)
	for i := range st.parent {
		st.parent[i] = int32(i)
	}
	work := make([]wedge, len(edges))
	for k, e := range edges {
		work[k] = wedge{u: idx(e.U), v: idx(e.V), w: e.W, in: uint32(k), tb: e.TB}
	}
	return st, work
}

// index builds verts from the eligible endpoint occurrences cand and
// returns the vertex → dense index lookup (-1 = not eligible) that encodes
// the edges. When the label window is small — the consecutive-ID case of a
// PE's sources (§II-B) — a window-indexed direct table replaces both the
// sort and the per-endpoint binary search (DESIGN.md §8.1).
func (st *state) index(cand []graph.VID) func(graph.VID) int32 {
	if len(cand) == 0 {
		st.verts = cand
		return func(graph.VID) int32 { return -1 }
	}
	lo, hi := slices.Min(cand), slices.Max(cand)
	if hi-lo >= uint64(4*len(cand)+1024) {
		slices.Sort(cand)
		st.verts = slices.Compact(cand)
		return func(v graph.VID) int32 {
			if i, ok := slices.BinarySearch(st.verts, v); ok {
				return int32(i)
			}
			return -1
		}
	}
	direct := make([]int32, hi-lo+1)
	for _, v := range cand {
		direct[v-lo] = 1
	}
	for i, mark := range direct {
		direct[i] = -1
		if mark != 0 {
			direct[i] = int32(len(st.verts))
			st.verts = append(st.verts, lo+graph.VID(i))
		}
	}
	return func(v graph.VID) int32 {
		if v < lo || v > hi {
			return -1
		}
		return direct[v-lo]
	}
}

// label is the working label of endpoint i, whose input label is orig.
func (st *state) label(i int32, orig graph.VID) graph.VID {
	if i < 0 {
		return orig
	}
	return st.verts[i]
}

// decode materializes a working edge with its current labels.
func (st *state) decode(e wedge) graph.Edge {
	src := &st.in[e.in]
	return graph.Edge{U: st.label(e.u, src.U), V: st.label(e.v, src.V), W: e.w, TB: e.tb, ID: src.ID}
}

// less is graph.LessWeight on the decoded edges. Labels and IDs are only
// read on a (W, TB) tie, that is, between copies of one logical edge.
func (st *state) less(a, b wedge) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	if a.tb != b.tb {
		return a.tb < b.tb
	}
	ea, eb := &st.in[a.in], &st.in[b.in]
	if va, vb := st.label(a.v, ea.V), st.label(b.v, eb.V); va != vb {
		return va < vb
	}
	return ea.ID < eb.ID
}

// root resolves i to its component root with path compression.
func (st *state) root(i int32) int32 {
	r := i
	for st.parent[r] != r {
		r = st.parent[r]
	}
	for st.parent[i] != r {
		st.parent[i], i = r, st.parent[i]
	}
	return r
}

// labels materializes the final (ascending vertex, root label) table.
func (st *state) labels() (verts, roots []graph.VID) {
	roots = make([]graph.VID, len(st.verts))
	for i := range st.verts {
		roots[i] = st.verts[st.root(int32(i))]
	}
	return st.verts, roots
}

// contract runs Borůvka rounds on work until no component can contract,
// appending found MST edges to res and counting rounds. It returns the
// surviving relabeled edges (self-loops removed, possibly with parallels).
func (st *state) contract(work []wedge, cfg Config, res *Result) []wedge {
	pool := cfg.Pool
	// Frozen flags are a per-call memo: a component frozen for lack of
	// edges in the filtered light phase must get another chance when the
	// heavy edges arrive. Re-freezing on cut edges happens naturally, as a
	// cut edge lighter than every heavy edge stays the component minimum.
	clear(st.frozen)
	// Edges arrive with input endpoints; normalize to current roots first
	// (no-op on the first call).
	work = st.relabel(work, pool)
	// retired holds edges that can never participate again within this
	// call: both endpoints frozen or non-local. Freezing is permanent for
	// the duration of a contract call, so setting such edges aside keeps
	// the per-round scan proportional to the still-active part of the
	// graph — essential on graphs with many cut edges, where the paper's
	// preprocessing would otherwise rescan frozen boundaries every round.
	var retired []wedge
	for {
		res.Work += len(work)
		st.slots.Reset()
		less := func(a, b uint32) bool { return st.less(work[a], work[b]) }
		// Min-priority-write: every edge offers itself to the slots of BOTH
		// endpoints (endpoints are component roots already). Writing both
		// sides makes the selection correct for undirected edges regardless
		// of which directed copies this PE holds, and is exactly the
		// min-priority-write of [15].
		pool.For(len(work), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				e := &work[k]
				if e.u >= 0 && !st.frozen[e.u] {
					st.slots.Write(int(e.u), uint32(k), less)
				}
				if e.v >= 0 && !st.frozen[e.v] {
					st.slots.Write(int(e.v), uint32(k), less)
				}
			}
		})

		// Choose parents; freeze components whose lightest edge leaves the
		// local vertex set.
		for i := range st.picks {
			st.picks[i] = pick{target: -1, edge: par.None}
			if st.frozen[i] || st.parent[i] != int32(i) {
				continue
			}
			k := st.slots.Get(i)
			if k == par.None {
				st.frozen[i] = true // isolated component
				continue
			}
			// The chosen edge may have been written from either side; the
			// contraction target is the endpoint that is not this root.
			j := work[k].v
			if j == int32(i) {
				j = work[k].u
			}
			if j < 0 {
				st.frozen[i] = true // lightest edge is a cut edge
				continue
			}
			st.picks[i] = pick{target: j, edge: k}
		}

		// Resolve picks; mutual pairs (2-cycles) keep the smaller label —
		// the smaller dense index — as root and contribute exactly one MST
		// edge.
		merged := false
		for i, p := range st.picks {
			j := p.target
			if j < 0 {
				continue
			}
			if st.picks[j].target == int32(i) && j > int32(i) {
				// Mutual pair and we are the smaller label: we stay root;
				// drop our pick (j will hang under us and contribute the
				// single MST edge of the 2-cycle).
				continue
			}
			st.parent[i] = j
			res.MSTEdges = append(res.MSTEdges, st.decode(work[p.edge]))
			merged = true
		}
		res.Rounds++
		if !merged {
			break
		}
		// Flatten the forest and relabel the edges.
		for i := range st.parent {
			st.root(int32(i))
		}
		work = st.relabel(work, pool)
		// Contracting a dense graph leaves many parallel edges; reducing
		// them per round keeps the total work a geometric sum instead of
		// m·rounds (the final removeParallel still canonicalizes the
		// survivors). Cheap hash reduction, lightest copy per directed
		// pair — both directions of a local edge reduce consistently.
		if len(work) > 256 {
			work = st.reduceParallelPairs(work)
		}
		// Retire edges between permanently settled components (endpoints
		// are roots again after relabel).
		settled := func(i int32) bool { return i < 0 || st.frozen[i] }
		active := work[:0]
		for _, e := range work {
			if settled(e.u) && settled(e.v) {
				retired = append(retired, e)
			} else {
				active = append(active, e)
			}
		}
		work = active
	}
	return append(work, retired...)
}

// reduceParallelPairs keeps the lightest copy per directed endpoint pair.
// Order is not preserved; the caller re-sorts at the end of the run.
func (st *state) reduceParallelPairs(work []wedge) []wedge {
	clear(st.pairs)
	out := work[:0]
	for _, e := range work {
		src := &st.in[e.in]
		// Labels are below 2^32 (the graph.KeyLex packing).
		k := st.label(e.u, src.U)<<32 | st.label(e.v, src.V)
		if i, ok := st.pairs[k]; ok {
			if st.less(e, out[i]) {
				out[i] = e
			}
			continue
		}
		st.pairs[k] = int32(len(out))
		out = append(out, e)
	}
	return out
}

// relabel rewrites eligible endpoints to their component roots in place
// and drops self-loops. The forest is flat whenever relabel runs (identity
// before the first round, flattened after every merging one), so a root is
// one parent lookup.
func (st *state) relabel(work []wedge, pool *par.Pool) []wedge {
	pool.For(len(work), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			e := &work[k]
			if e.u >= 0 {
				e.u = st.parent[e.u]
			}
			if e.v >= 0 {
				e.v = st.parent[e.v]
			}
		}
	})
	out := work[:0]
	for _, e := range work {
		// Two non-eligible endpoints keep their input labels.
		if e.u != e.v || (e.u < 0 && st.in[e.in].U != st.in[e.in].V) {
			out = append(out, e)
		}
	}
	return out
}

// splitAtMedianWeight partitions edges at the median weight of a small
// sample, light part inclusive.
func (st *state) splitAtMedianWeight(work []wedge) (light, heavy []wedge) {
	const sampleN = 63
	sample := make([]wedge, 0, sampleN)
	step := len(work)/sampleN + 1
	for i := 0; i < len(work); i += step {
		sample = append(sample, work[i])
	}
	slices.SortFunc(sample, radix.CmpOf(st.less))
	pivot := sample[len(sample)/2]
	light = make([]wedge, 0, len(work)/2)
	heavy = make([]wedge, 0, len(work)/2)
	for _, e := range work {
		if st.less(pivot, e) {
			heavy = append(heavy, e)
		} else {
			light = append(light, e)
		}
	}
	return light, heavy
}

// removeParallel reduces runs of equal (U,V) to the lightest copy and
// returns the edges sorted lexicographically. With cfg.HashDedup it uses
// the §VI-B hybrid: edges lighter than a sampled pivot enter a hash table
// that both dedups them and filters heavier duplicates, so only the heavy
// remainder needs sorting.
func removeParallel(edges []graph.Edge, cfg Config) []graph.Edge {
	if len(edges) == 0 {
		return nil
	}
	if !cfg.HashDedup {
		radix.Sort(edges, graph.KeyLex, graph.LessLex)
		out := edges[:0]
		for i, e := range edges {
			if i > 0 && e.U == edges[i-1].U && e.V == edges[i-1].V {
				continue
			}
			out = append(out, e)
		}
		return out
	}

	// Pivot such that the light set is small (about a quarter).
	const sampleN = 31
	sample := make([]graph.Edge, 0, sampleN)
	step := len(edges)/sampleN + 1
	for i := 0; i < len(edges); i += step {
		sample = append(sample, edges[i])
	}
	slices.SortFunc(sample, graph.CmpWeight)
	pivot := sample[len(sample)/4]

	type key struct{ U, V graph.VID }
	light := make(map[key]graph.Edge)
	heavy := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		if !graph.LessWeight(pivot, e) {
			k := key{e.U, e.V}
			if cur, ok := light[k]; !ok || graph.LessWeight(e, cur) {
				light[k] = e
			}
		} else {
			heavy = append(heavy, e)
		}
	}
	// Heavy edges whose pair already has a lighter copy die here.
	kept := heavy[:0]
	for _, e := range heavy {
		if _, ok := light[key{e.U, e.V}]; !ok {
			kept = append(kept, e)
		}
	}
	radix.Sort(kept, graph.KeyLex, graph.LessLex)
	out := make([]graph.Edge, 0, len(light)+len(kept))
	for _, e := range light {
		out = append(out, e)
	}
	radix.Sort(out, graph.KeyLex, graph.LessLex)
	// Merge the two sorted parts, dropping heavy duplicates.
	merged := make([]graph.Edge, 0, len(out)+len(kept))
	i, j := 0, 0
	for i < len(out) || j < len(kept) {
		var e graph.Edge
		if j >= len(kept) || (i < len(out) && graph.LessLex(out[i], kept[j])) {
			e = out[i]
			i++
		} else {
			e = kept[j]
			j++
		}
		if n := len(merged); n > 0 && merged[n-1].U == e.U && merged[n-1].V == e.V {
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// MSF computes the full minimum spanning forest of an in-memory graph with
// t threads — the shared-memory baseline (§VII-C). All vertices count as
// local.
func MSF(edges []graph.Edge, pool *par.Pool) Result {
	return Run(edges, func(graph.VID) bool { return true }, Config{Pool: pool, HashDedup: true})
}
