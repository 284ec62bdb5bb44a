package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"kamsta"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none): the
// smallest sample with at least q of the samples at or below it. With
// fewer than 1/(1-q) samples that is the largest one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// segmentQuantile is the q-quantile of xs taken in each of three
// contiguous thirds (xs in measurement order) and reported as the median
// of the three, so one passing disturbance does not set a run's figure.
// With fewer than three samples it is the plain quantile.
func segmentQuantile(xs []float64, q float64) float64 {
	if len(xs) < 3 {
		return quantile(xs, q)
	}
	var parts []float64
	for i := 0; i < 3; i++ {
		parts = append(parts, quantile(xs[i*len(xs)/3:(i+1)*len(xs)/3], q))
	}
	return median(parts)
}

// rounded returns xs rounded to microseconds, for the recorded
// environment.
func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e6) / 1e6
	}
	return out
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSS returns the process's maximum resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// answer is what a correct MSF job must return.
type answer struct {
	weight uint64
	edges  int
	digest string
}

// edgesDigest hashes a canonical (U < V, sorted by U, V, W) edge list.
func edgesDigest(es []kamsta.InputEdge) string {
	h := sha256.New()
	var buf [20]byte
	for _, e := range es {
		binary.LittleEndian.PutUint64(buf[0:], e.U)
		binary.LittleEndian.PutUint64(buf[8:], e.V)
		binary.LittleEndian.PutUint32(buf[16:], e.W)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// reportAnswer extracts the checked fields of a job's report.
func reportAnswer(rep *kamsta.Report) answer {
	return answer{weight: rep.TotalWeight, edges: rep.NumEdges, digest: edgesDigest(rep.MSTEdges)}
}

// fileSHA256 hashes a file's contents.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sourceDigest hashes every Go source and go.mod file under root (build
// outputs excluded), so results from checkouts without version control
// still name the code they measured.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// snapshot is a flat copy of a metrics registry: series key
// ("name{labels}") to its JSON value.
type snapshot map[string]json.RawMessage

// snap exports reg through its JSON writer.
func snap(reg *kamsta.Metrics) snapshot {
	var buf bytes.Buffer
	s := snapshot{}
	if reg == nil || reg.WriteJSON(&buf) != nil {
		return s
	}
	if json.Unmarshal(buf.Bytes(), &s) != nil {
		return snapshot{}
	}
	return s
}

// family returns the keys of every series of one metric family whose
// labels contain all of the given label fragments (e.g. `dir="tx"`).
func (s snapshot) family(name string, labels ...string) []string {
	var keys []string
	for k := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(k, l)
		}
		if ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// scalar reads one scalar series (0 when absent or not a number).
func (s snapshot) scalar(key string) float64 {
	var v float64
	if json.Unmarshal(s[key], &v) != nil {
		return 0
	}
	return v
}

// sum adds every matching scalar series of a family.
func (s snapshot) sum(name string, labels ...string) float64 {
	t := 0.0
	for _, k := range s.family(name, labels...) {
		t += s.scalar(k)
	}
	return t
}

// delta is after minus before, summed over a family's matching series.
func delta(before, after snapshot, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// ranksObserved counts the ranks whose superstep counter moved between
// two snapshots: the PEs this process's registry actually describes.
func ranksObserved(before, after snapshot) int {
	moved := map[string]bool{}
	for _, k := range after.family("kamsta_comm_supersteps_total") {
		if after.scalar(k) > before.scalar(k) {
			i := strings.Index(k, `rank="`)
			if i >= 0 {
				r := k[i+6:]
				moved[r[:strings.IndexByte(r, '"')]] = true
			}
		}
	}
	return len(moved)
}

// histogram is one exported histogram: cumulative bucket counts by upper
// bound (the +Inf bucket under key "+Inf").
type histogram struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"`
}

func (s snapshot) histogram(key string) histogram {
	var h histogram
	_ = json.Unmarshal(s[key], &h) // absent: the zero histogram
	return h
}

// histQuantile estimates the q-quantile of the samples a histogram series
// gained between two snapshots, interpolating linearly inside the bucket
// as Prometheus' histogram_quantile does; samples in the +Inf bucket
// report the largest finite bound. The resolution is the bucket layout's.
func histQuantile(before, after snapshot, key string, q float64) float64 {
	hb, ha := before.histogram(key), after.histogram(key)
	n := ha.Count - hb.Count
	if n <= 0 {
		return 0
	}
	type bucket struct {
		le  float64
		cum int64
	}
	var bs []bucket
	for k, c := range ha.Buckets {
		if k == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(k, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, c - hb.Buckets[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * float64(n)
	lo, prev := 0.0, int64(0)
	for _, b := range bs {
		if float64(b.cum) >= rank {
			in := b.cum - prev
			if in == 0 {
				return b.le
			}
			return lo + (b.le-lo)*(rank-float64(prev))/float64(in)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}
