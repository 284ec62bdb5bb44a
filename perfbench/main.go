// Command perfbench is the repository benchmark. It runs one of four
// workloads against kamsta, measuring from outside the program: it times
// calls into each layer's public functions and reads the counters the
// program already exports (Report.Phases, Report.Stats, the obs registry).
//
//	go run . --workload rgg2d-boruvka --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload with the program's metrics and spans switched on and prints
// the per-layer metrics instead. Every job is checked against a sequential
// Kruskal reference and its modeled clock against the run's pinned bits;
// any mismatch is counted as failed and the command exits non-zero. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// --smoke shrinks every instance so all workloads finish in seconds (the
// package's own tests use it). See README.md for what each workload
// isolates and which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	workDir  string
	commit   string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"rgg2d-boruvka":   func(b *bench) error { return runBatch(b, rggBoruvka) },
	"gnm-filter":      func(b *bench) error { return runBatch(b, gnmFilter) },
	"gnm-boruvka-tcp": func(b *bench) error { return runBatch(b, gnmBoruvkaTCP) },
	"serve-small":     runServe,
}

func workloadNames() []string {
	return []string{"rgg2d-boruvka", "gnm-filter", "gnm-boruvka-tcp", "serve-small"}
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (metrics and spans on)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny instances: every workload in seconds")
	flag.StringVar(&o.workDir, "workdir", "", "directory for instance files (default: a fresh temporary directory under .bench_build)")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit recorded with the result")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(execute(o, run, os.Stdout))
}

// execute runs one workload and prints its result to out; it returns the
// exit code.
func execute(o options, run func(*bench) error, out io.Writer) int {
	dir := o.workDir
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		d, err := os.MkdirTemp(".bench_build", "work-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(d)
		dir = d
	}
	b := newBench(o, dir)
	err := run(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		b.failed++
	}
	return b.report(out)
}

// report prints the environment, the metric table and the final JSON
// line, and returns the exit code: 0 only for a run whose every check
// passed and whose every catalogued metric was measured.
func (b *bench) report(out io.Writer) int {
	names := endToEnd
	if b.opt.trace {
		names = perLayer
	}
	metrics := make(map[string]metricValue, len(names))
	for _, m := range names {
		v, ok := b.values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", b.opt.workload, m.name)
			b.failed++
			continue
		}
		metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	envJSON, _ := json.Marshal(b.env)
	fmt.Fprintf(out, "env %s\n", envJSON)
	for _, m := range names {
		if mv, ok := metrics[m.name]; ok {
			fmt.Fprintf(out, "%-34s %-16.6g %s\n", m.name, mv.Value, mv.Unit)
		}
	}
	if b.attempted < 1 {
		b.attempted = 1
		b.failed++
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if b.failed > 0 {
		return 1
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one run: options, check counters, measured
// values and the recorded environment.
type bench struct {
	opt       options
	dir       string
	sz        sizes
	attempted int
	failed    int
	values    map[string]float64
	env       map[string]any
}

func newBench(o options, dir string) *bench {
	b := &bench{opt: o, dir: dir, sz: sizesFor(o.smoke), values: map[string]float64{}}
	b.env = map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"smoke":      o.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     o.commit,
		"transport":  "shm",
	}
	if d, err := sourceDigest("."); err == nil {
		b.env["source_sha256"] = d
	}
	return b
}

// set records one metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// check counts one checked operation and logs a failure.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", b.opt.workload, fmt.Sprintf(format, args...))
	}
	return ok
}
