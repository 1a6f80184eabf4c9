// Command perfbench is the repository's benchmark: four seeded, closed-loop
// workloads (predict, serve, optimize, retrain) that drive the T3 layers
// through their public Go functions and report end-to-end metrics, or — in a
// separate traced run — per-layer metrics.
//
// Run it from the repository root through run.sh, which builds this module
// into .bench_build first:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// Every run prints a host block, the workload's properties, each metric by
// name with its unit, and as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (endToEnd below); with
// --trace 1 they are the per-layer set (perLayer below). See README.md for
// why each workload exists and which end-to-end metric each layer moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	t3 "t3"
)

// endToEnd lists the metrics every workload reports with --trace 0, in the
// order and with the units BENCHMARK.json declares.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics every workload reports with --trace 1. A layer
// the workload does not drive reports 0 (and "idle" in the text block).
var perLayer = []metricDef{
	// predict
	{"plan.decompose_ns", "ns"},
	{"feature.encode_ns", "ns"},
	{"treec.predict_ns", "ns"},
	{"plan.pipelines_per_plan", "count"},
	{"t3.predict_ns", "ns"},
	{"t3.coverage", "ratio"},
	{"t3.batch_ns_per_plan", "ns"},
	{"runtime.allocs_per_predict", "count"},
	{"runtime.allocs_per_batch", "count"},
	// serve
	{"wire.decode_ns", "ns"},
	{"wire.plankey_ns", "ns"},
	{"wire.frame_bytes", "B"},
	{"predcache.hit_ratio", "ratio"},
	{"predcache.get_ns", "ns"},
	{"predcache.put_ns", "ns"},
	{"predcache.evictions", "count"},
	{"coalesce.batch_size_mean", "count"},
	{"coalesce.wait_us", "us"},
	{"coalesce.dispatch_us", "us"},
	{"serve.reads_per_req", "count"},
	{"serve.writes_per_req", "count"},
	{"serve.net_residual_us", "us"},
	{"serve.repeat_share", "ratio"},
	// optimize
	{"joinorder.dp_steps", "count"},
	{"joinorder.model_calls", "count"},
	{"joinorder.batches", "count"},
	{"joinorder.max_batch", "count"},
	{"joinorder.pruned", "count"},
	{"joinorder.pruned_share", "ratio"},
	{"joinorder.oracle_calls", "count"},
	{"joinorder.oracle_us", "us"},
	{"runtime.allocs_per_enum", "count"},
	// retrain
	{"workload.collect_s", "s"},
	{"exec.ns_per_tuple", "ns"},
	{"exec.morsels", "count"},
	{"exec.parallel_pipelines", "count"},
	{"gbdt.train_s", "s"},
	{"gbdt.rows", "count"},
	{"ctrl.shadow_ms", "ms"},
	{"registry.put_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"registry.artifact_bytes", "B"},
	{"serve.swap_us", "us"},
	{"ctrl.promoted_share", "ratio"},
	// every workload
	{"runtime.gc_cycles", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_ns", "ns"},
}

type metricDef struct{ name, unit string }

type workloadDef struct {
	name string
	run  func(env *env, traced bool) (*report, error)
}

// workloads maps each --workload name to its implementation.
var workloads = []workloadDef{
	{"predict", runPredict},
	{"serve", runServe},
	{"optimize", runOptimize},
	{"retrain", runRetrain},
}

// env is what every workload receives: its seed, its measuring time, where
// to find the model and where to write scratch files.
type env struct {
	seed    int64
	measure time.Duration
	model   string
	out     string
}

// loadModel loads the checked-in model the predict, serve and optimize
// workloads answer with and the retrain workload starts from.
func (e *env) loadModel() (*t3.Model, error) {
	m, err := t3.Load(e.model)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return m, nil
}

func main() {
	workload := flag.String("workload", "all", "predict, serve, optimize, retrain, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measuring time per workload, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	model := flag.String("model", "models/t3_default.json", "model every workload starts from")
	out := flag.String("out", ".bench_build", "directory for traces and the retrain registry")
	commit := flag.String("commit", "unknown", "commit the program was built from, for the host block")
	flag.Parse()

	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	todo := slices.DeleteFunc(slices.Clone(workloads), func(w workloadDef) bool {
		return *workload != "all" && *workload != w.name
	})
	if len(todo) == 0 {
		fatalf("unknown workload %q", *workload)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("creating %s: %v", *out, err)
	}

	printHost(*commit, *seed)
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, w := range todo {
		e := &env{
			seed:    *seed,
			measure: time.Duration(*seconds) * time.Second,
			model:   *model,
			out:     *out,
		}
		rep, err := w.run(e, *trace == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		ms := rep.print(w.name, defs)
		final.Attempted += rep.attempted
		final.Failed += rep.failed
		for k, v := range ms {
			if len(todo) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value in the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload run's outcome: operation counts, metric
// values by name, and the workload properties later claims may rest on.
type report struct {
	attempted, failed int
	values            map[string]float64
	// extra are end-to-end figures that apply to this workload only; they
	// are printed, not put in the JSON line.
	extra []extraMetric
	props []string
}

type extraMetric struct {
	name  string
	value float64
	unit  string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) setExtra(name string, v float64, unit string) {
	r.extra = append(r.extra, extraMetric{name, v, unit})
}

func (r *report) prop(format string, args ...any) {
	r.props = append(r.props, fmt.Sprintf(format, args...))
}

// check counts one operation and whether its output was correct.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// print writes the workload's text block and returns its JSON metrics: every
// metric of defs, 0 for layers this workload leaves idle.
func (r *report) print(workload string, defs []metricDef) map[string]metric {
	fmt.Printf("workload %s\n", workload)
	for _, p := range r.props {
		fmt.Printf("  property %s\n", p)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  metric %-28s %14.6g %-6s (failed %d of %d attempted)\n", "fail_share", share, "ratio", r.failed, r.attempted)
	for _, x := range r.extra {
		fmt.Printf("  metric %-28s %14.6g %s\n", x.name, x.value, x.unit)
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if ok {
			fmt.Printf("  metric %-28s %14.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Printf("  metric %-28s %14s %s\n", d.name, "idle", d.unit)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// printHost prints the host block: what a reader needs to compare results
// from two machines. Serve latency on any host depends on timer lateness.
func printHost(commit string, seed int64) {
	fmt.Printf("host cpu %q\n", cpuModel())
	fmt.Printf("host nproc %d gomaxprocs %d go %s commit %s seed %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
	fmt.Printf("host timer_late_us %.1f (median lateness of time.AfterFunc(20us), 50 tries)\n",
		timerLateness(20*time.Microsecond, 50).Seconds()*1e6)
	fmt.Printf("host hash_ns %.3f (median ns per FNV-1a byte over 20 runs of 64 KiB: this host's speed now)\n",
		hashSpeed(20, 64<<10))
}

// hashSpeed times a fixed single-threaded loop, so results from a host
// that runs faster or slower than usual can be told apart.
func hashSpeed(runs, n int) float64 {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	ns := make([]float64, runs)
	for r := range ns {
		start := time.Now()
		h := uint64(14695981039346656037)
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
		hashSink = h
	}
	return median(ns)
}

// hashSink keeps hashSpeed's loop from being optimized away.
var hashSink uint64

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// timerLateness returns the median delay by which time.AfterFunc(d) fires
// after its deadline.
func timerLateness(d time.Duration, tries int) time.Duration {
	late := make([]time.Duration, tries)
	done := make(chan time.Time, 1)
	for i := range late {
		start := time.Now()
		time.AfterFunc(d, func() { done <- time.Now() })
		late[i] = (<-done).Sub(start) - d
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return late[tries/2]
}

// scratchDir makes a fresh directory for one workload under the output
// directory; the caller removes it.
func (e *env) scratchDir(name string) (string, error) {
	dir, err := os.MkdirTemp(e.out, name+"-")
	if err != nil {
		return "", fmt.Errorf("creating scratch directory: %w", err)
	}
	return dir, nil
}
