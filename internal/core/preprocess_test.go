package core

import (
	"slices"
	"testing"

	"kamsta/internal/comm"
	"kamsta/internal/graph"
)

// localityGraph is a symmetric, lexicographically sorted edge sequence on
// 1..n with a hub (vertex 3, adjacent to 100 others) whose source run is
// long enough to span three PEs.
func localityGraph(n int) (edges []graph.Edge, hubLo, hubHi int) {
	add := func(u, v graph.VID) {
		w := graph.RandomWeight(5, u, v)
		edges = append(edges, graph.NewEdge(u, v, w), graph.NewEdge(v, u, w))
	}
	for u := 1; u <= n; u++ {
		for d := 1; d <= 3 && u+d <= n; d++ {
			if u != 3 && u+d != 3 {
				add(graph.VID(u), graph.VID(u+d))
			}
		}
	}
	for v := 4; v <= 103; v++ {
		add(3, graph.VID(v))
	}
	slices.SortFunc(edges, graph.CmpLex)
	for i := range edges {
		edges[i].ID = uint64(i)
	}
	hubLo = slices.IndexFunc(edges, func(e graph.Edge) bool { return e.U == 3 })
	hubHi = slices.IndexFunc(edges, func(e graph.Edge) bool { return e.U > 3 })
	return edges, hubLo, hubHi
}

// localityCuts splits m edges over p PEs. For p >= 3, PE 1 holds only the
// middle third of the hub's run (the hub is shared by PEs 0, 1 and 2); for
// p >= 6, PE 4 is empty; for p >= 8, one cut falls exactly on a source-run
// boundary (a first source that is not shared).
func localityCuts(edges []graph.Edge, p, hubLo, hubHi int) []int {
	m := len(edges)
	cuts := make([]int, p+1)
	for i := range cuts {
		cuts[i] = i * m / p
	}
	if p >= 3 {
		cuts[1] = hubLo + (hubHi-hubLo)/3
		cuts[2] = hubLo + 2*(hubHi-hubLo)/3
		for i := 3; i < p; i++ {
			cuts[i] = cuts[2] + (i-2)*(m-cuts[2])/(p-2)
		}
	}
	if p >= 6 {
		cuts[5] = cuts[4]
	}
	if p >= 8 {
		k := cuts[7]
		for k < m && edges[k].U == edges[k-1].U {
			k++
		}
		cuts[7] = min(k, cuts[8])
	}
	return cuts
}

// TestLocalRangeMatchesSharedSpan checks preprocessing's O(1) locality test
// against the layout's definition — v appears as a source on this PE and
// is not shared — for every endpoint on every PE.
func TestLocalRangeMatchesSharedSpan(t *testing.T) {
	edges, hubLo, hubHi := localityGraph(400)
	for _, p := range []int{1, 3, 16} {
		cuts := localityCuts(edges, p, hubLo, hubHi)
		layouts := make([]*graph.Layout, p)
		comm.NewWorld(p).Run(func(c *comm.Comm) {
			r := c.Rank()
			layouts[r] = graph.BuildLayout(c, edges[cuts[r]:cuts[r+1]])
		})
		l := layouts[0]
		if p >= 3 {
			if first, last := l.SharedSpan(3); first != 0 || last != 2 {
				t.Fatalf("p=%d: hub span [%d,%d], want [0,2]", p, first, last)
			}
		}
		if p >= 6 && l.Counts[4] != 0 {
			t.Fatalf("p=%d: PE 4 holds %d edges, want none", p, l.Counts[4])
		}
		locals := 0
		for r := 0; r < p; r++ {
			lo, end := localRange(edges[cuts[r]:cuts[r+1]], l, r)
			for _, e := range edges {
				for _, v := range []graph.VID{e.U, e.V} {
					first, last := l.SharedSpan(v)
					want := first == r && last == r
					if got := lo <= v && v < end; got != want {
						t.Fatalf("p=%d rank=%d v=%d: range test %v, SharedSpan [%d,%d]", p, r, v, got, first, last)
					}
					if want {
						locals++
					}
				}
			}
		}
		if locals == 0 {
			t.Fatalf("p=%d: no local endpoint at all", p)
		}
	}
}
