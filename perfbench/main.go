// Command perfbench is the repository's same-host performance benchmark. One
// process runs one named workload on the simulator's public entry points for
// a fixed time, checks every result against golden cycle counts, and prints
// its metrics as one JSON object on the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a run that
// records a span around every call the benchmark makes into a layer and
// writes them out as a Chrome trace. See README.md for the workloads and
// metrics.
//
// Run it from the root of a checkout with perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/experiments"
)

// clients is the number of concurrent callers and harness workers: the
// host the benchmark was tuned on has two cores, and the load never asks for
// more.
const clients = 2

// A run builds its set-up once untimed, to pay one-off costs such as page
// faults on a fresh heap, then at least minSetupRounds times, and more until
// setupBudget has passed or maxSetupRounds were built; setup_s is the median
// round, so a slow round or two do not move it. A collection before each
// round keeps one round's garbage out of the next.
const (
	minSetupRounds = 9
	maxSetupRounds = 400
	setupBudget    = time.Second
)

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"minsts_per_s", "Minst/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// layerMetrics are reported by every workload with --trace 1; a layer the
// workload does not reach reports 0. The traced.* entries repeat the
// end-to-end metrics as measured with tracing on.
var layerMetrics = []metricDef{
	{"cpu.minsts_per_s", "Minst/s"},
	{"cpu.allocs_per_inst", "count"},
	{"cpu.bytes_per_inst", "B"},
	{"cpu.gc_cpu_frac", "fraction"},
	{"cpu.new_machine_us", "us"},
	{"cpu.ckpt_clone_us", "us"},
	{"fastsim.tier1_minsts_per_s", "Minst/s"},
	{"sim.utilization", "fraction"},
	{"sim.window_ms", "ms"},
	{"sim.cache_hit_frac", "fraction"},
	{"sim.cache_hit_us", "us"},
	{"sim.geomean_speedup", "x"},
	{"sim.sampled_err_pct", "%"},
	{"compiler.compile_ms", "ms"},
	{"lint.preflight_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"fabric.relay_ms", "ms"},
	{"fabric.dispatches", "count"},
	{"fabric.steals", "count"},
	{"fabric.hedges", "count"},
	{"fabric.hedges_wasted", "count"},
	{"fabric.retries", "count"},
	{"fabric.worker_hit_frac", "fraction"},
	{"peak_rss_mb", "MiB"},
	{"trace.span_coverage", "fraction"},
	{"traced.setup_s", "s"},
	{"traced.minsts_per_s", "Minst/s"},
	{"traced.jobs_per_s", "1/s"},
	{"traced.job_p50_ms", "ms"},
	{"traced.job_p95_ms", "ms"},
}

var workloadRunners = map[string]func(*run) error{
	"detailed": runDetailed,
	"sampled":  runSampled,
	"serve":    func(r *run) error { return runServe(r, false) },
	"fabric":   func(r *run) error { return runServe(r, true) },
}

// run is one benchmark invocation: its inputs and everything it measured.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	tr       *tracer // nil unless --trace 1
	gold     golden

	setups []time.Duration

	mu        sync.Mutex
	attempted int
	failed    int
	windows   []window

	layer map[string]float64
	info  map[string]any
}

// window is one slice of the measured run: a pass over the job list of a
// detailed or sampled run, or a whole serve run. Rates and latencies are
// taken per window and reported as the median window, so a burst of
// interference from elsewhere on the host moves one pass rather than the
// result.
type window struct {
	wall   time.Duration
	lat    []float64 // per-job latency, ms
	insts  float64   // simulated instructions the window's jobs stand for
	peakMB float64   // peak resident set size during the window
}

// done records one finished job of window w: its latency, the instructions
// it stands for, and the correctness error that failed it, if any.
func (r *run) done(w int, lat time.Duration, insts float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	win := r.win(w)
	win.lat = append(win.lat, ms(lat))
	win.insts += insts
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// check records a correctness check that is not a timed job.
func (r *run) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// repeatSetup builds the workload's set-up repeatedly, timing each round,
// tears down every instance but the last and returns that one.
func repeatSetup[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	cur, err := setup()
	if err != nil {
		return cur, fmt.Errorf("set-up: %w", err)
	}
	var spent time.Duration
	for i := 0; i < maxSetupRounds && (i < minSetupRounds || spent < setupBudget); i++ {
		runtime.GC()
		sp := r.tr.start(0, benchLayer, "setup", fmt.Sprintf("setup-%d", i), 0)
		start := time.Now()
		next, err := setup()
		d := time.Since(start)
		sp.end()
		if err != nil {
			return cur, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, d)
		spent += d
		teardown(cur)
		cur = next
	}
	return cur, nil
}

// markPeak ends window w's memory watch: it records the peak resident set
// size since the last mark and starts the next watch.
func (r *run) markPeak(w int) {
	peak := peakRSSMB()
	resetPeakRSS()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.win(w).peakMB = peak
}

// setWall sets window w's measured wall time.
func (r *run) setWall(w int, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.win(w).wall = wall
}

// win returns window w, adding windows up to it; r.mu must be held.
func (r *run) win(w int) *window {
	for len(r.windows) <= w {
		r.windows = append(r.windows, window{})
	}
	return &r.windows[w]
}

// windowRates returns each window's jobs per second, for judging how much
// the windows of one run disagree.
func (r *run) windowRates() []float64 {
	var out []float64
	for _, w := range r.windows {
		if w.wall > 0 {
			out = append(out, float64(len(w.lat))/w.wall.Seconds())
		}
	}
	return out
}

// samples returns every job latency of the run, in ms.
func (r *run) samples() []float64 {
	var all []float64
	for _, w := range r.windows {
		all = append(all, w.lat...)
	}
	return all
}

// endToEnd returns the end-to-end metrics, the median round for setup_s and
// the median window for the rest, plus peak_rss_mb, the median window's peak
// resident set size, which the run reports with the per-layer metrics.
func (r *run) endToEnd() map[string]float64 {
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	var insts, jobs, p50, p95, peak []float64
	for _, w := range r.windows {
		if w.wall <= 0 || len(w.lat) == 0 {
			continue
		}
		peak = append(peak, w.peakMB)
		insts = append(insts, w.insts/w.wall.Seconds()/1e6)
		jobs = append(jobs, float64(len(w.lat))/w.wall.Seconds())
		p50 = append(p50, quantile(w.lat, 0.50))
		p95 = append(p95, quantile(w.lat, 0.95))
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"minsts_per_s": median(insts),
		"jobs_per_s":   median(jobs),
		"job_p50_ms":   median(p50),
		"job_p95_ms":   median(p95),
		"peak_rss_mb":  median(peak),
	}
}

// closedLoop runs call(lane, i) for i = 0, 1, ... n-1 from two clients, each
// taking the next index when its previous call returns, until the indices
// run out or, with a non-zero deadline, the deadline passes.
func closedLoop(n int, deadline time.Time, call func(lane, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				call(lane, i)
			}
		}(c)
	}
	wg.Wait()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: detailed, sampled, serve or fabric")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the Chrome trace")
	regen := flag.String("regen-golden", "", "recompute the golden results into this file and exit")
	flag.Parse()

	if *regen != "" {
		if err := regenGolden(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	runner, ok := workloadRunners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload detailed|sampled|serve|fabric, --seconds >= 1 and --trace 0|1")
		flag.Usage()
		os.Exit(2)
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		gold:     gold,
		layer:    map[string]float64{},
		info:     map[string]any{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := runner(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: nothing was attempted\n", *workload)
		os.Exit(1)
	}

	command := fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d",
		*workload, *seed, *seconds, *trace)
	e2e := r.endToEnd()
	report := map[string]any{
		"meta":              experiments.NewMeta(command),
		"workload":          *workload,
		"seed":              *seed,
		"trace":             *trace,
		"setup_rounds":      len(r.setups),
		"samples":           len(r.samples()),
		"windows":           len(r.windows),
		"pooled_p50_ms":     quantile(r.samples(), 0.50),
		"pooled_p95_ms":     quantile(r.samples(), 0.95),
		"window_jobs_per_s": r.windowRates(),

		"attempted":   r.attempted,
		"failed":      r.failed,
		"failed_frac": float64(r.failed) / float64(r.attempted),
		"end_to_end":  e2e,
	}
	for k, v := range r.info {
		report[k] = v
	}
	metrics := map[string]metricValue{}
	if r.tr == nil {
		for _, m := range e2eMetrics {
			metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			r.layer["traced."+m.name] = e2e[m.name]
		}
		r.layer["peak_rss_mb"] = e2e["peak_rss_mb"]
		r.layer["trace.span_coverage"] = r.tr.coverage()
		for _, m := range layerMetrics {
			metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		}
		report["per_layer"] = r.layer
		report["layer_self_ms"] = r.tr.selfTimes()
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := r.tr.write(path, report); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		report["trace_file"] = path
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	final := map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	if err := enc.Encode(final); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}
