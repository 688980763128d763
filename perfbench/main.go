// Command perfbench is the repository's end-to-end benchmark. It builds the
// serving topologies in-process, the way cmd/ccserve builds them, drives one
// workload for a fixed time, checks every answer against an oracle of its
// own (oracle.go), and prints one JSON result line.
//
//	perfbench --workload build|serve_read|routed_mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown, timed from this package by calling
// each layer's public functions and by reading the program's /metrics.
// Progress and diagnostics go to standard error; the last line of standard
// output is the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// endToEnd lists the end-to-end metrics every --trace 0 run prints, with
// their units; BENCHMARK.json lists the same names (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"build_alloc_mb", "MB"},
	{"snapshot_mb", "MB"},
	{"load_s", "s"},
	{"live_heap_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"aggregate_p50_ms", "ms"},
	{"read_rps", "req/s"},
	{"append_p50_ms", "ms"},
	{"refresh_s", "s"},
	{"recover_s", "s"},
}

// perLayer lists the per-layer metrics every --trace 1 run prints. A layer
// a workload does not exercise reports 0 (the README's table says which).
var perLayer = []metricDef{
	{"advisor.advise_s", "s"},
	{"engine.compute_s", "s"},
	{"engine.compute_alloc_mb", "MB"},
	{"engine.cells", "count"},
	{"engine.rebuild_s", "s"},
	{"cubestore.residual_s", "s"},
	{"cubestore.residual_alloc_mb", "MB"},
	{"cubestore.residual_rows", "count"},
	{"cubestore.freeze_s", "s"},
	{"ccubing.unattributed_s", "s"},
	{"ccubing.save_s", "s"},
	{"ccubing.query_us", "us"},
	{"ccubing.query_cached_us", "us"},
	{"ccubing.aggregate_ms", "ms"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"cubestore.probe_us", "us"},
	{"cubestore.groups_per_probe", "count"},
	{"cubestore.candidates_per_probe", "count"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.alloc_kb_per_req", "KB"},
	{"serve.router_self_us", "us"},
	{"serve.worker_us", "us"},
	{"serve.straggler_us", "us"},
	{"serve.fanout_per_read", "count"},
	{"serve.scatter_share", "ratio"},
	{"serve.worker_errors", "count"},
	{"refresh.worker_refresh_s", "s"},
	{"refresh.partitions_share", "ratio"},
	{"refresh.cells_rebuilt_share", "ratio"},
	{"refresh.wal_append_us", "us"},
	{"refresh.wal_bytes_per_row", "B"},
	{"refresh.replay_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"tail.query_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.open_p50_ms", "ms"},
	{"loadgen.open_p99_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"obs.crosscheck_mismatches", "count"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one benchmark invocation's shared state: its settings, the
// operation tally, the correctness verdict and the metrics reported.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for WAL files, removed on exit

	attempted int64
	failed    int64
	problems  []string // correctness failures; any makes correct=false
	values    map[string]float64
}

// op records one attempted operation and whether it failed.
func (r *run) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// wrong records a correctness failure: an answer the oracle disagrees with.
// Only the first few are printed.
func (r *run) wrong(format string, args ...any) {
	if len(r.problems) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG: "+format+"\n", args...)
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"build":        runBuild,
	"serve_read":   runServeRead,
	"routed_mixed": runRoutedMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: build, serve_read or routed_mixed")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload build|serve_read|routed_mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		base = filepath.Join(".bench_build", "work")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fatal(err)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    work,
		values:  map[string]float64{},
	}
	// The default GC target whatever GOGC the environment sets, so runs
	// collect alike.
	debug.SetGCPercent(100)
	r.logf("workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d", *workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	err = fn(r)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fatal(fmt.Errorf("no value for metrics %v", missing))
	}
	if out.Attempted < 1 {
		fatal(fmt.Errorf("no operation attempted"))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	r.logf("correct=%v attempted=%d failed=%d problems=%d", out.Correct, out.Attempted, out.Failed, len(r.problems))
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// itoa is strconv.Itoa for the many request builders.
func itoa(v int) string { return strconv.Itoa(v) }
