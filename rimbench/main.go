// Command rimbench is the repository's end-to-end benchmark. One process
// runs one named workload against the real serving stack (or the offline
// solvers), measures it from outside at the seams the packages export,
// checks that every output is correct, and prints one JSON result line:
//
//	rimbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for the full rationale):
//
//	ingest  closed loop, fixed work: wire → serve → store WAL → repl follower,
//	        then a crash-image boot of the leader's data directory
//	live    open loop below capacity: mobility moves, joins/leaves and
//	        dashboard reads against 1200 standing subscriptions
//	solve   offline, one goroutine: graph anneal, SINR anneal, exact search
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// the program's own observability at rimd's default and no benchmark
// spans. With --trace 1 the benchmark installs its span recorder at the
// layer seams and the result carries the per-layer metrics instead.
//
// The last line of standard output is the JSON result; the lines before
// it are the same numbers for people, with the seed echoed. The exit
// code is 1 when any correctness check fails and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span dump path of traced runs
	tmp      string // scratch directory for data directories
	size     sizes
	inject   faults
}

// faults are deliberate defects the tests inject to prove that the
// correctness checks catch them. The command line never sets them.
type faults struct {
	divergeFollower bool // write to the follower behind the leader's back
	dropEvent       bool // lose one pushed event before the stream check
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: ingest, live or solve")
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "measured time per run")
		trace    = fs.Int("trace", 0, "1 records benchmark spans and reports per-layer metrics")
		out      = fs.String("out", ".bench_build", "directory for scratch data and the span dumps of traced runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "rimbench: usage: rimbench --workload ingest|live|solve --seed N --seconds S --trace 0|1")
		return 2
	}
	return execute(newOptions(*workload, *seed, *seconds, *trace == 1, *out), stdout, stderr)
}

// newOptions is one full-size invocation that keeps its scratch data and
// span dumps under out.
func newOptions(workload string, seed int64, seconds float64, trace bool, out string) options {
	opts := options{workload: workload, seed: seed, seconds: seconds, trace: trace, size: fullSize,
		tmp: filepath.Join(out, "rimbench-tmp")}
	if trace {
		opts.spans = filepath.Join(out, fmt.Sprintf("rimbench-spans-%s-seed%d.jsonl", workload, seed))
	}
	return opts
}

// execute runs the workload and prints its result.
func execute(opts options, stdout, stderr io.Writer) int {
	rep, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "rimbench: %v\n", err)
		return 2
	}
	return emit(rep, opts, stdout, stderr)
}

// runWorkload dispatches one workload with rimd's default observability
// (spans and the flight recorder on, every 16th root span sampled).
func runWorkload(opts options) (*report, error) {
	if obs.Available {
		obs.SetEnabled(true)
		obs.DefaultRecorder().SetSample(16)
		obs.ResetDefaultFlight(0, 0)
	}
	switch opts.workload {
	case "ingest":
		return runIngest(opts), nil
	case "live":
		return runLive(opts), nil
	case "solve":
		return runSolve(opts), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, live or solve)", opts.workload)
}

// report is what a workload hands back: its metrics, the operation
// accounting, and every correctness violation it found.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string // human-readable context lines
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the human-readable table and the JSON line, and maps the
// correctness outcome onto the exit code.
func emit(rep *report, opts options, stdout, stderr io.Writer) int {
	list, kind := e2eMetrics, "end-to-end"
	vals := rep.e2e
	if opts.trace {
		list, kind, vals = layerMetrics, "per-layer", rep.layer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			rep.fail("metric %s was not measured", m.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("metric %s is not a number (%v)", m.name, v)
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if rep.attempted < 1 {
		rep.fail("no operation was attempted")
	}
	res.Correct = len(rep.problems) == 0
	fmt.Fprintf(stdout, "rimbench: workload=%s seed=%d seconds=%g trace=%v\n", opts.workload, opts.seed, opts.seconds, opts.trace)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "rimbench: %s\n", n)
	}
	fmt.Fprintf(stdout, "rimbench: %s metrics (attempted %d, failed %d):\n", kind, rep.attempted, rep.failed)
	for _, m := range list {
		if mv, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", m.name, mv.Value, m.unit)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "rimbench: check failed: %s\n", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rimbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// bootSeed is the input seed of a run's k-th boot. Each boot of a
// multi-boot workload gets its own instance, so one run averages over
// several instances as well as several boots.
func bootSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// --- measurement helpers ---------------------------------------------------

// cpuNow is the process CPU time (user + system) so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memNow reads the runtime's memory statistics.
func memNow() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeapMiB is the live heap after a full collection (two, so that
// sync.Pool victims are released too).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	ms := memNow()
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeLayer fills the runtime.* per-layer metrics from MemStats taken
// around the measured window.
func runtimeLayer(rep *report, before, after runtime.MemStats, ops int64) {
	rep.layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	rep.layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	rep.layer["runtime.alloc_mb_per_kop"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(ops)/1000)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pct is the q-quantile of a sample (nearest rank on the sorted copy).
// It returns 0 for an empty sample; callers report a percentile only
// when enough samples lie beyond it (see tailOK).
func pct(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the index pct picks among n sorted samples.
func rank(n int, q float64) int { return int(math.Round(q * float64(n-1))) }

// median is pct(sample, 0.5).
func median(sample []float64) float64 { return pct(sample, 0.5) }

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the condition for reporting it at all.
func tailOK(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= 10
}

// gated is the q-quantile of a per-layer sample, or 0 (the reading of a
// bypassed layer) when fewer than ten samples lie beyond it.
func gated(sample []float64, q float64) float64 {
	if !tailOK(len(sample), q) {
		return 0
	}
	return pct(sample, q)
}

// mean of a sample (0 when empty).
func mean(sample []float64) float64 { return ratio(sum(sample), float64(len(sample))) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
