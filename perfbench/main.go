// Command perfbench drives the ccdac system through its public entry
// points on one workload and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) as the last line of stdout:
//
//	bash perfbench/run.sh --workload gen-12 --seed 1 --seconds 20 --trace 0
//
// Workloads are gen-12 (closed-loop 12-bit GenerateContext), serve-mix
// (one closed-loop client against an in-process daemon on loopback)
// and yield-jobs (closed-loop bursts of 16 compatible yield jobs over
// POST /v1/jobs). perfbench/BENCHMARK.md says what each measures and why.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// phaseCapFactor bounds a fixed-work timed phase at this many times
// --seconds, so that a much slower build still exits in time; a phase
// cut short says so in the stamp ("truncated").
const phaseCapFactor = 4

// procStart approximates process start: package initialization runs
// before main, microseconds after exec.
var procStart = time.Now()

// params is one invocation's settings.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workers overrides the analysis worker budget of gen-12 designs
	// (0 = the library default, GOMAXPROCS). The resolution check runs
	// gen-12 with -1 (serial analysis) to prove the comparison flags it.
	workers int
	// missesPerBlock is the number of misses in each serve-mix block
	// (default 1). The mix sensitivity check runs 2, which doubles the
	// miss work per block, to prove throughput_per_s sees it.
	missesPerBlock int
	// root is the checkout root: goldens live under perfbench/golden and
	// scratch state under .bench_build.
	root string
}

// op is one timed operation of a workload's closed loop.
type op struct {
	ms float64
	ok bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	// setupRounds are the wall times of the set-up rounds; round 0 is
	// measured from process start.
	setupRounds []float64
	ops         []op
	// elapsed is the wall time of the timed phase.
	elapsed time.Duration
	// tailPct is the workload's fixed tail percentile (see BENCHMARK.md).
	tailPct float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// notes carries workload facts for the stamp line.
	notes map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, params) (*outcome, error){
	"gen-12":     runGen12,
	"serve-mix":  runServeMix,
	"yield-jobs": runYieldJobs,
}

func main() {
	var p params
	var traceFlag int
	var record bool
	flag.StringVar(&p.workload, "workload", "", "workload: gen-12, serve-mix or yield-jobs")
	flag.Int64Var(&p.seed, "seed", 1, "input seed")
	flag.IntVar(&p.seconds, "seconds", 20, "length of the timed phase (gen-12), or the size of its fixed work (serve-mix, yield-jobs)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.IntVar(&p.workers, "analysis-workers", 0, "gen-12 analysis worker budget (-1 = serial; resolution check only)")
	flag.IntVar(&p.missesPerBlock, "misses-per-block", 1, "serve-mix misses per block (2 = mix sensitivity check only)")
	flag.BoolVar(&record, "record-golden", false, "re-record perfbench/golden from uncoalesced runs and exit")
	flag.Parse()
	p.trace = traceFlag == 1
	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	p.root = wd
	if record {
		if err := recordGolden(context.Background(), p.root); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[p.workload]
	if !ok || p.seconds < 1 {
		fail(fmt.Errorf("usage: --workload gen-12|serve-mix|yield-jobs --seed N --seconds N --trace 0|1"))
	}
	out, err := run(context.Background(), p)
	if err != nil {
		fail(err)
	}
	rep := summarize(p, out)
	stamp(p, out)
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// summarize turns a workload outcome into the result line.
func summarize(p params, out *outcome) report {
	rep := report{Attempted: len(out.ops), Metrics: map[string]metric{}}
	var lat []float64
	for _, o := range out.ops {
		if !o.ok {
			rep.Failed++
		}
		lat = append(lat, o.ms)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if p.trace {
		rep.Metrics = out.layers
		return rep
	}
	okOps := rep.Attempted - rep.Failed
	sort.Float64s(lat)
	rep.Metrics["throughput_per_s"] = metric{float64(okOps) / out.elapsed.Seconds(), "1/s"}
	rep.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	rep.Metrics["latency_tail_ms"] = metric{quantile(lat, out.tailPct), "ms"}
	rep.Metrics["setup_s"] = metric{median(out.setupRounds), "s"}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.Metrics["ok_ratio"] = metric{float64(okOps) / float64(max(rep.Attempted, 1)), "ratio"}
	return rep
}

// stamp prints the run's identity and sample facts on one stdout line
// before the result line.
func stamp(p params, out *outcome) {
	beyond := 0
	if n := len(out.ops); n > 0 {
		beyond = n - int(math.Ceil(out.tailPct*float64(n)))
	}
	s := map[string]any{
		"workload":          p.workload,
		"seed":              p.seed,
		"seconds":           p.seconds,
		"trace":             p.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"commit":            commit(p.root),
		"source_sha256":     sourceDigest(p.root),
		"samples":           len(out.ops),
		"tail_percentile":   out.tailPct * 100,
		"samples_beyond":    beyond,
		"setup_rounds_s":    out.setupRounds,
		"analysis_workers":  p.workers,
		"workload_details":  out.notes,
		"elapsed_timed_sec": out.elapsed.Seconds(),
	}
	b, err := json.Marshal(map[string]any{"stamp": s})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// commit names the source revision: git's HEAD, with "-dirty" when the
// work tree differs from it, when the checkout is a repository, else
// "unknown" (source_sha256 then identifies the tree).
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "describe", "--always", "--dirty", "--abbrev=40")
	// Look at the checkout itself only, never an enclosing repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if b, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes, in path order, every .go, go.mod and go.sum file
// of the checkout, BENCHMARK.json, and every file under perfbench/
// except the recorded results and the Markdown docs: the program and
// everything that decides the benchmark's command, inputs, checks,
// bounds and comparison. Directories starting with "." (build output,
// VCS) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		name := d.Name()
		inBench := strings.HasPrefix(rel, "perfbench/") && !strings.HasPrefix(rel, "perfbench/results/") &&
			!strings.HasSuffix(name, ".md")
		if !inBench && rel != "BENCHMARK.json" && !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i]
}

// median of unsorted values (the input is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rtSample is a runtime/metrics reading for the runtime layer metrics.
type rtSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// runtimeLayers reports the Go runtime's share of a timed phase: heap
// allocated per operation and the GC's share of CPU time.
func runtimeLayers(into map[string]metric, before, after rtSample, ops int) {
	gcShare := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		gcShare = (after.gcCPU - before.gcCPU) / d
	}
	into["runtime.alloc_mb_per_op"] = metric{(after.allocBytes - before.allocBytes) / (1 << 20) / float64(max(ops, 1)), "MB/op"}
	into["runtime.gc_cpu_share"] = metric{gcShare, "ratio"}
}

// fillAbsentLayers checks the per-layer metrics a workload measured
// against BENCHMARK.json's per_layer list and adds a zero reading for
// each one the workload does not run.
func fillAbsentLayers(root string, into map[string]metric) error {
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := loadJSON(filepath.Join(root, "BENCHMARK.json"), &bench); err != nil {
		return err
	}
	declared := map[string]string{}
	for _, m := range bench.PerLayer {
		declared[m.Name] = m.Unit
		if _, ok := into[m.Name]; !ok {
			into[m.Name] = metric{0, m.Unit}
		}
	}
	for name, m := range into {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not declared as such in BENCHMARK.json", name, m.Unit)
		}
	}
	return nil
}

// overheadRatio is the traced e2e over the untraced e2e, minus one: the
// median wall time of a traced unit of work (which includes the trace
// work) over that of an untraced one, from interleaved halves of the
// same run.
func overheadRatio(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return median(traced)/u - 1
}

// relClose reports whether a and b agree to a relative tolerance.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// scratchDir makes a fresh per-process directory under .bench_build.
func scratchDir(root, name string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
