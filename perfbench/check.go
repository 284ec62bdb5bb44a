package main

import (
	"cmp"
	"context"
	"math"
	"slices"

	"kamsta"
	"kamsta/internal/graph"
	"kamsta/internal/seqmst"
)

// kruskalAnswer computes the reference MSF of an edge list with the
// sequential Kruskal of internal/seqmst. Directed inputs (both directions
// of every edge, as the generators emit) are reduced to one copy first.
func kruskalAnswer(edges []graph.Edge, directed bool) answer {
	if directed {
		edges = seqmst.UndirectedFromDirected(edges)
	}
	n := graph.VID(0)
	for _, e := range edges {
		n = max(n, e.U, e.V)
	}
	r := seqmst.Kruskal(int(n), edges)
	es := make([]kamsta.InputEdge, len(r.Edges))
	for i, e := range r.Edges {
		u, v := e.OrigPair()
		es[i] = kamsta.InputEdge{U: u, V: v, W: e.W}
	}
	slices.SortFunc(es, func(a, b kamsta.InputEdge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
	})
	return answer{weight: r.TotalWeight, edges: len(es), digest: edgesDigest(es)}
}

// modeledPin holds the modeled-clock bits every job of one case must
// reproduce: the case's first job (on the TCP workload, its in-process
// reference job) sets them.
type modeledPin struct {
	set  bool
	bits uint64
}

// seconds returns the pinned modeled time.
func (p *modeledPin) seconds() float64 { return math.Float64frombits(p.bits) }

// checkReport counts one job and checks its result against the reference
// answer and, when pin is non-nil, its modeled clock against the pinned
// bits (pinning them on first use).
func (b *bench) checkReport(what string, rep *kamsta.Report, err error, want answer, pin *modeledPin) bool {
	if err != nil {
		return b.check(false, "%s: %v", what, err)
	}
	if !b.checkAnswer(what, reportAnswer(rep), want) {
		return false
	}
	if pin == nil {
		return true
	}
	bits := math.Float64bits(rep.ModeledSeconds)
	if !pin.set {
		pin.set, pin.bits = true, bits
		return true
	}
	b.attempted-- // the same job, second property
	return b.check(bits == pin.bits, "%s: modeled bits %#x, want %#x", what, bits, pin.bits)
}

// checkAnswer counts one job and checks its forest against want.
func (b *bench) checkAnswer(what string, got, want answer) bool {
	return b.check(got == want, "%s: MSF weight/edges/digest %d/%d/%s, want %d/%d/%s",
		what, got.weight, got.edges, got.digest, want.weight, want.edges, want.digest)
}

// goldenCases are the repository's pinned modeled-clock cases: default
// options on an 8-PE machine.
var goldenCases = []struct {
	name   string
	spec   kamsta.GraphSpec
	alg    kamsta.Algorithm
	bits   uint64
	weight uint64
	edges  int
}{
	{"gnm-boruvka", kamsta.GraphSpec{Family: kamsta.GNM, N: 1 << 10, M: 1 << 13, Seed: 42},
		kamsta.AlgBoruvka, 0x3f453980b2cb7769, 19837, 1023},
	{"rgg2d-filter", kamsta.GraphSpec{Family: kamsta.RGG2D, N: 1 << 10, M: 1 << 13, Seed: 7},
		kamsta.AlgFilterBoruvka, 0x3f68ca7d4d6ed9eb, 22137, 1023},
}

// runGolden runs the pinned cases once and checks their modeled bits and
// forests.
func (b *bench) runGolden() error {
	m, err := kamsta.NewMachine(kamsta.MachineConfig{PEs: 8})
	if err != nil {
		return err
	}
	defer m.Close()
	for _, gc := range goldenCases {
		rep, err := m.Compute(context.Background(), kamsta.FromSpec(gc.spec), kamsta.WithAlgorithm(gc.alg))
		if err != nil {
			b.check(false, "golden %s: %v", gc.name, err)
			continue
		}
		bits := math.Float64bits(rep.ModeledSeconds)
		b.check(bits == gc.bits && rep.TotalWeight == gc.weight && rep.NumEdges == gc.edges,
			"golden %s: bits %#x weight %d edges %d, want %#x %d %d",
			gc.name, bits, rep.TotalWeight, rep.NumEdges, gc.bits, gc.weight, gc.edges)
	}
	return nil
}
