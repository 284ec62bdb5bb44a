package localmst

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"

	"kamsta/internal/graph"
	"kamsta/internal/par"
	"kamsta/internal/rng"
)

// bandGraph builds a high-locality undirected graph on 1..n: every vertex
// links to its next four labels, plus a sprinkle of long edges, with the
// experiments' weight draw. Single copies, unsorted.
func bandGraph(n int, seed uint64) []graph.Edge {
	r := rng.New(seed)
	var edges []graph.Edge
	for u := 1; u <= n; u++ {
		for d := 1; d <= 4 && u+d <= n; d++ {
			a, b := graph.VID(u), graph.VID(u+d)
			edges = append(edges, graph.NewEdge(a, b, graph.RandomWeight(seed, a, b)))
		}
		if r.Intn(8) == 0 {
			a, b := graph.VID(u), graph.VID(r.Intn(n)+1)
			if a != b {
				edges = append(edges, graph.NewEdge(a, b, graph.RandomWeight(seed, a, b)))
			}
		}
	}
	return edges
}

// symmetricSorted returns both directed copies of every edge, sorted
// lexicographically, with IDs numbering the sorted sequence — the shape of
// the distributed edge sequence of §II-B.
func symmetricSorted(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{U: e.V, V: e.U, W: e.W, TB: e.TB})
	}
	slices.SortFunc(out, graph.CmpLex)
	for i := range out {
		out[i].ID = uint64(i)
	}
	return out
}

// peSlice cuts the sorted symmetric edge sequence of g like one PE's share:
// it starts halfway through source lo's run and ends halfway through source
// hi's run, so both boundary sources are shared with a neighbour PE.
func peSlice(g []graph.Edge, lo, hi graph.VID) []graph.Edge {
	first := slices.IndexFunc(g, func(e graph.Edge) bool { return e.U == lo })
	last := slices.IndexFunc(g, func(e graph.Edge) bool { return e.U > hi })
	runLo := slices.IndexFunc(g, func(e graph.Edge) bool { return e.U > lo }) - first
	runHi := last - slices.IndexFunc(g, func(e graph.Edge) bool { return e.U == hi })
	return g[first+runLo/2 : last-runHi/2]
}

// withParallels appends to g a heavier and a lighter copy of every
// seventh edge, plus a few self-loops, keeping IDs unique.
func withParallels(g []graph.Edge) []graph.Edge {
	out := slices.Clone(g)
	next := uint64(len(g))
	for i := 0; i < len(g); i += 7 {
		for _, dw := range []graph.Weight{1, 300} {
			e := g[i]
			e.W = e.W%250 + dw
			e.ID = next
			next++
			out = append(out, e)
		}
	}
	for v := graph.VID(3); v < 600; v += 97 {
		out = append(out, graph.Edge{U: v, V: v, W: 5, TB: graph.MakeTB(v, v), ID: next})
		next++
	}
	return out
}

// digestResult hashes every field of a Result in order.
func digestResult(r Result) string {
	h := sha256.New()
	putEdges := func(h hash.Hash, es []graph.Edge) {
		binary.Write(h, binary.LittleEndian, uint64(len(es)))
		for _, e := range es {
			binary.Write(h, binary.LittleEndian, []uint64{e.U, e.V, uint64(e.W), e.TB, e.ID})
		}
	}
	putEdges(h, r.MSTEdges)
	binary.Write(h, binary.LittleEndian, uint64(len(r.Verts)))
	binary.Write(h, binary.LittleEndian, r.Verts)
	binary.Write(h, binary.LittleEndian, r.Roots)
	putEdges(h, r.Remaining)
	binary.Write(h, binary.LittleEndian, []int64{int64(r.Rounds), int64(r.Work)})
	return hex.EncodeToString(h.Sum(nil))
}

// identityDigests pins the full Result of Run (MST edges in order with
// their working labels, the label table, the surviving edges, rounds and
// work) on fixed inputs. The figures were recorded from the binary-search
// implementation that preceded the once-per-run dense encoding; any change
// to the rounds' order of operations shows up here. Keys are
// input/rule/filter; both dedup variants and both thread counts must
// produce the pinned digest.
var identityDigests = map[string]string{
	"band/all/filter=false":        "604453c7283ee787e15a663dbc02ded3de3e9a24a5dd6d5ca06c8adffeb3493a",
	"band/all/filter=true":         "f8643fa95df4c762e6a385e54f16a219dd2675eb02747120c01857d92fbf8fb9",
	"band/slice/filter=false":      "d08c8deb9e0b2376c2f1f23a623b91b9948244ba68bb24659e9ab8f1ced59ceb",
	"band/slice/filter=true":       "c4fbde5178f6e91b8f78a7547deb539b20a156f9f607ad6876c808b1170b266e",
	"band/sparse/filter=false":     "887d5242f0a3e69299fea9de126ad2fe54c47c5aaed1e37ba61d352cf9674b06",
	"band/sparse/filter=true":      "6928f4fc403247f1ed02c35c17a9627a87e1a807ab43450dcb7b995912d742d6",
	"parallel/all/filter=false":    "ea90e4f4c28d6b4e46eb2f650b46d13b2aa229db3784e3db8d20669df3b48166",
	"parallel/all/filter=true":     "b9f6ed44db25a7f4c0575f8373309a67efcf61aab5fe6a478c940dac60b0bce7",
	"parallel/slice/filter=false":  "4762372c8977abed492f308849330495b3d834da4b46d47ef40a93354c98c7f0",
	"parallel/slice/filter=true":   "386fb6fc93ed3502db79ff64c03ff4e024ff77f47754839ff6bfb7d2b914e703",
	"parallel/sparse/filter=false": "1255e5dca4af4b7b2457b6ba60d68e7b82b9c257d1057a9f0b94e34df880aa12",
	"parallel/sparse/filter=true":  "febd8551dd9c546c3343422d709fa89bbb6abc4c6d92ebc7e73d9fcecbe5211c",
	"peslice/all/filter=false":     "23a049337a7fe35794833fa925d64b39190aad7ce0c8a99874f3cb41eb2fa4ac",
	"peslice/all/filter=true":      "527dc65e3b52763c904dea2c1a5ca587e835b6e70680a85ab4d0feef654b6d6c",
	"peslice/slice/filter=false":   "7062163ce86718135e48a1314bf334b2ced83cd20ea2e322cccd2c2ba44b680b",
	"peslice/slice/filter=true":    "da8668e06c86009a71e41f28567b5e4bcf8fd70369c00d208c2014136789b10e",
	"peslice/sparse/filter=false":  "d6e79f072427c6cd238ec19c19181007b84e23f2d850ecebd76755d2bf085926",
	"peslice/sparse/filter=true":   "24cc0e4bafa35ea6f127a753e94360d7e4b2cee2a179c4f276224365835084d3",
	"random/all/filter=false":      "dcec65a3de67f02fbe0844afe8866b7dae7bdea4decdf1ecefe4f7d2088c686a",
	"random/all/filter=true":       "5e8b0bf50b6ce55aaad3edaf73b9d8b33a7b891862319ce6e069921710a54e96",
	"random/slice/filter=false":    "2f62f64ecab1d0c1a35bb5f0a7d68fb270b326f8f6a591baa786cfaa9565d427",
	"random/slice/filter=true":     "02225042e7d82df6cd79048a2aa836df3696f853e1d6e9c7514a67b12a60799f",
	"random/sparse/filter=false":   "a6b6d3744b88991ff759c85f6216c95c10c59cb9e711b9af75a6e5a39ccb6a4c",
	"random/sparse/filter=true":    "0f44fd8371ff8a82bded872126cd44fa484f23e3572cdc3a70fc1ba30d116193",
}

func TestRunOutputIdentity(t *testing.T) {
	band := symmetricSorted(bandGraph(600, 21))
	inputs := []struct {
		name  string
		edges []graph.Edge
		lo    graph.VID // first and last source of the slice rule
		hi    graph.VID
	}{
		{"random", randomEdges(400, 3000, 11), 100, 300},
		{"band", band, 1, 600},
		{"peslice", peSlice(band, 150, 450), 150, 450},
		{"parallel", withParallels(peSlice(band, 100, 500)), 100, 500},
	}
	got := map[string]string{}
	for _, in := range inputs {
		rules := []struct {
			name    string
			isLocal func(graph.VID) bool
		}{
			{"all", allLocal},
			{"slice", func(v graph.VID) bool { return in.lo < v && v < in.hi }},
			{"sparse", func(v graph.VID) bool { return v%3 != 0 }},
		}
		for _, rule := range rules {
			for _, filter := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/filter=%v", in.name, rule.name, filter)
				for _, hashDedup := range []bool{false, true} {
					for _, threads := range []int{1, 4} {
						d := digestResult(Run(in.edges, rule.isLocal, Config{
							Pool: par.NewPool(threads), Filter: filter, FilterThreshold: 1024, HashDedup: hashDedup,
						}))
						got[key] = d
						if want := identityDigests[key]; d != want {
							t.Errorf("%s hash=%v threads=%d: digest %s, want %s", key, hashDedup, threads, d, want)
						}
					}
				}
			}
		}
	}
	if t.Failed() {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			t.Logf("%q: %q,", k, got[k])
		}
	}
}
