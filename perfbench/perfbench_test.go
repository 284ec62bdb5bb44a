package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"kamsta"
)

// TestSmokeEveryWorkload runs every workload at smoke size, untraced and
// traced, and requires a correct result that carries every catalogued
// metric with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				var out bytes.Buffer
				o := options{workload: w, seed: 3, seconds: 0.5, trace: trace, smoke: true,
					workDir: t.TempDir(), commit: "test"}
				code := execute(o, workloads[w], &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, attempted %d, failed %d", code, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
				}
			})
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
	for _, c := range []struct {
		name string
		json []def
		code []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.name, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.json[i] != (def{m.name, m.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.json[i], m)
			}
		}
	}
}

// TestCheckReportCountsMismatches pins the correctness gate: a wrong
// forest and a modeled-clock mismatch each count as a failed check.
func TestCheckReportCountsMismatches(t *testing.T) {
	b := newBench(options{workload: "test", seed: 1}, t.TempDir())
	edges := []kamsta.InputEdge{{U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 7}}
	good := &kamsta.Report{TotalWeight: 12, NumEdges: 2, MSTEdges: edges, ModeledSeconds: 1.5}
	want := reportAnswer(good)
	pin := &modeledPin{}
	if !b.checkReport("first", good, nil, want, pin) || b.failed != 0 {
		t.Fatal("a correct report failed the check")
	}
	wrong := &kamsta.Report{TotalWeight: 12, NumEdges: 2, MSTEdges: []kamsta.InputEdge{{U: 1, V: 3, W: 5}, {U: 2, V: 3, W: 7}}, ModeledSeconds: 1.5}
	if b.checkReport("wrong forest", wrong, nil, want, pin) || b.failed != 1 {
		t.Error("a wrong forest passed the check")
	}
	drift := &kamsta.Report{TotalWeight: 12, NumEdges: 2, MSTEdges: edges, ModeledSeconds: 1.5000001}
	if b.checkReport("modeled drift", drift, nil, want, pin) || b.failed != 2 {
		t.Error("a modeled-clock mismatch passed the check")
	}
	if b.attempted != 3 {
		t.Errorf("attempted %d, want 3", b.attempted)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 of 5 samples %v, want the largest", got)
	}
	before := snapshot{"h": json.RawMessage(`{"count":0,"sum":0,"buckets":{"0.001":0,"0.01":0,"+Inf":0}}`)}
	after := snapshot{"h": json.RawMessage(`{"count":10,"sum":0,"buckets":{"0.001":4,"0.01":10,"+Inf":10}}`)}
	if got, want := histQuantile(before, after, "h", 0.5), 0.001+0.009/6; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("histogram median %v, want %v", got, want)
	}
}
