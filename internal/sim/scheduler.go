package sim

// Concurrent simulation scheduler. Independent (config, program) simulations
// share nothing — each cpu.Machine owns its memory, caches and predictors —
// so the harness fans jobs out over a worker pool and memoises results in a
// keyed run-cache. Results are keyed by job index, never by completion
// order, so the parallel harness is observationally identical to the
// sequential one.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

// Job is one simulation request: run prog on cfg.
type Job struct {
	Cfg  cpu.Config
	Prog *asm.Program

	// Ckpt, when non-nil, seeds the machine from a tier-1 checkpoint
	// (cpu.NewMachineFromCheckpoint) instead of a cold boot: a sampled window.
	// The checkpoint's position and warm-state shape extend the cache key — a
	// window never shares a slot with a cold-boot run of the same config.
	Ckpt *cpu.Checkpoint

	// Faults is a deterministic fault-injection spec (internal/fault
	// grammar, e.g. "all" or "conflict=0.05,kill"); "" or "none" runs clean.
	// Seed seeds the plan's per-kind random streams. Both are part of the
	// run-cache key: an injected run never shares a slot with a clean one.
	Faults string
	Seed   int64

	// Timeout bounds the job's wall-clock time; 0 means no deadline. A
	// deadline only decides whether the job completes — never its result —
	// so it is excluded from the cache key.
	Timeout time.Duration

	// Observe, when non-nil, is invoked with the machine just before each
	// actual simulation attempt, letting callers attach telemetry or progress
	// hooks (cpu.SnapshotStats works concurrently while the run proceeds).
	// It is not part of the cache key and fires only for runs that execute:
	// a cache hit, a singleflight join, or a quarantined key never observes
	// a machine, and a panic retry observes the fresh machine again.
	Observe func(*cpu.Machine)
}

// Harness schedules simulation jobs over a worker pool with an optional
// shared run-cache. The zero value runs with GOMAXPROCS workers and no
// cache; NewHarness returns one wired to a fresh cache.
type Harness struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoises and deduplicates runs; nil disables caching.
	Cache *RunCache

	// Scheduling telemetry (Stats). Per-job wall time is measured around the
	// cache, so a cache hit counts its (tiny) service time, not a simulation.
	batches     atomic.Uint64
	jobs        atomic.Uint64
	jobNanos    atomic.Int64
	maxJobNanos atomic.Int64
	wallNanos   atomic.Int64

	// Crash-proofing telemetry and state (safety.go). quarantined holds the
	// job keys whose runs panicked twice; they fail fast with ErrQuarantined.
	panics      atomic.Uint64
	retries     atomic.Uint64
	quarantines atomic.Uint64
	timeouts    atomic.Uint64
	quarantined sync.Map // job key -> struct{}{}
}

// HarnessStats is a snapshot of the harness's scheduling telemetry.
type HarnessStats struct {
	// Batches counts RunJobs invocations; Jobs counts jobs scheduled.
	Batches uint64
	Jobs    uint64
	// JobNanos is the summed per-job wall time; MaxJobNanos the longest
	// single job; WallNanos the summed batch wall time.
	JobNanos    int64
	MaxJobNanos int64
	WallNanos   int64
	// Workers is the configured pool size.
	Workers int
	// Utilization is JobNanos / (Workers x WallNanos): the fraction of the
	// pool's capacity spent inside jobs (1.0 = perfectly packed).
	Utilization float64
	// Crash-proofing counters: recovered worker panics, panic retries, keys
	// quarantined after a panicking retry, and per-job deadline expiries.
	Panics      uint64
	Retries     uint64
	Quarantined uint64
	Timeouts    uint64
	// Run-cache counters (zero when no cache is attached). CacheFailures
	// counts errored runs evicted instead of cached; CacheEvictions counts
	// completed entries displaced by the LRU bound (CacheCapacity, 0 =
	// unbounded).
	CacheHits        uint64
	CacheFlightJoins uint64
	CacheMisses      uint64
	CacheFailures    uint64
	CacheEvictions   uint64
	CacheEntries     uint64
	CacheCapacity    uint64
}

// Stats snapshots the harness's scheduling and cache telemetry.
func (h *Harness) Stats() HarnessStats {
	s := HarnessStats{
		Batches:     h.batches.Load(),
		Jobs:        h.jobs.Load(),
		JobNanos:    h.jobNanos.Load(),
		MaxJobNanos: h.maxJobNanos.Load(),
		WallNanos:   h.wallNanos.Load(),
		Workers:     h.workers(),
		Panics:      h.panics.Load(),
		Retries:     h.retries.Load(),
		Quarantined: h.quarantines.Load(),
		Timeouts:    h.timeouts.Load(),
	}
	if cap := float64(s.Workers) * float64(s.WallNanos); cap > 0 {
		s.Utilization = float64(s.JobNanos) / cap
	}
	if c := h.Cache; c != nil {
		s.CacheHits = c.Hits()
		s.CacheFlightJoins = c.FlightJoins()
		s.CacheMisses = c.Misses()
		s.CacheFailures = c.Failures()
		s.CacheEvictions = c.Evictions()
		s.CacheEntries = uint64(c.Len())
		if cap := c.Capacity(); cap > 0 {
			s.CacheCapacity = uint64(cap)
		}
	}
	return s
}

// NewHarness returns a harness with GOMAXPROCS workers and a fresh cache.
func NewHarness() *Harness {
	return &Harness{Cache: NewRunCache()}
}

// defaultHarness backs the package-level entry points: every core drives the
// pool, and one process-wide cache deduplicates the shared baselines across
// experiments, sweeps, and repeated benchmark iterations.
var defaultHarness atomic.Pointer[Harness]

func init() {
	defaultHarness.Store(NewHarness())
}

// DefaultHarness returns the harness behind the package-level RunSuite,
// Compare, and RunJobs.
func DefaultHarness() *Harness { return defaultHarness.Load() }

// SetParallelism caps the default harness's worker pool (the -parallel flag
// of the drivers); n <= 0 restores the GOMAXPROCS default. The shared cache
// is kept.
func SetParallelism(n int) {
	defaultHarness.Store(&Harness{Workers: n, Cache: DefaultHarness().Cache})
}

func (h *Harness) workers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runOne executes a single job through the quarantine check and the cache
// when one is attached. The actual simulation happens in execute (safety.go),
// which recovers panics and enforces the job deadline; ctx cancellation stops
// the machine mid-run and releases singleflight joiners immediately.
func (h *Harness) runOne(ctx context.Context, j Job) (*cpu.Stats, error) {
	start := time.Now()
	defer func() {
		d := int64(time.Since(start))
		h.jobs.Add(1)
		h.jobNanos.Add(d)
		for {
			old := h.maxJobNanos.Load()
			if d <= old || h.maxJobNanos.CompareAndSwap(old, d) {
				break
			}
		}
	}()
	key := jobKey(j)
	if _, bad := h.quarantined.Load(key); bad {
		return nil, fmt.Errorf("%w (program %s)", ErrQuarantined, j.Prog.Name)
	}
	if h.Cache != nil {
		return h.Cache.DoContext(ctx, key, func() (*cpu.Stats, error) { return h.execute(ctx, key, j) })
	}
	return h.execute(ctx, key, j)
}

// RunJobsErrs executes all jobs over the pool and returns stats and errors
// indexed exactly like jobs. It never stops early: a job that fails — or
// panics, or exceeds its deadline — yields its own error while every other
// job still runs to completion, so a sweep always produces the partial
// result set it can.
func (h *Harness) RunJobsErrs(jobs []Job) ([]*cpu.Stats, []error) {
	return h.RunJobsCtx(context.Background(), jobs)
}

// RunJobsCtx is RunJobsErrs under a context: when ctx is cancelled (a client
// disconnect, a server drain), every in-flight machine stops at its next
// cancellation poll, jobs waiting on someone else's singleflight run stop
// waiting, and jobs not yet started fail fast with the context error. The
// call always returns with every worker goroutine finished — cancellation
// can never leak a runner.
func (h *Harness) RunJobsCtx(ctx context.Context, jobs []Job) ([]*cpu.Stats, []error) {
	out := make([]*cpu.Stats, len(jobs))
	errs := make([]error, len(jobs))
	h.batch(ctx, min(h.workers(), len(jobs)), func(send func(task)) {
		for i := range jobs {
			send(task{job: jobs[i], st: &out[i], err: &errs[i]})
		}
	})
	return out, errs
}

// task is one job of a batch and the slots its outcome goes to.
type task struct {
	job Job
	st  **cpu.Stats
	err *error
}

// batch is the harness's one worker loop. feed sends the batch's jobs
// through send, which never blocks, so feed may go on producing jobs while
// the first ones run; n workers run them in the order sent, each storing
// the job's outcome through its task's slots. batch returns once feed has
// returned and every job sent has finished, with every worker goroutine
// gone, and counts as one batch in Stats however long feed took.
func (h *Harness) batch(ctx context.Context, n int, feed func(send func(task))) {
	batchStart := time.Now()
	h.batches.Add(1)
	defer func() { h.wallNanos.Add(int64(time.Since(batchStart))) }()
	var q taskQueue
	q.ready.L = &q.mu
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for {
				t, ok := q.pop()
				if !ok {
					return
				}
				if err := ctx.Err(); err != nil {
					*t.err = fmt.Errorf("sim: job not started: %w", err)
					continue
				}
				*t.st, *t.err = h.runOne(ctx, t.job)
			}
		}()
	}
	defer wg.Wait()
	defer q.close()
	feed(q.push)
}

// taskQueue is a batch's unbounded FIFO of tasks: the feeder never waits
// for a worker, and workers wait for tasks until the queue is closed. It is
// unbounded so that tier 1 never waits for a window: held to the windows'
// pace, a tier 1 that fails would report it only after every window before
// the failure had run.
type taskQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	tasks  []task
	head   int
	closed bool
}

func (q *taskQueue) push(t task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
	q.ready.Signal()
}

func (q *taskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Broadcast()
}

// pop returns the oldest task, waiting for one while the queue is open; ok
// is false once the queue is closed and drained.
func (q *taskQueue) pop() (t task, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.tasks) && !q.closed {
		q.ready.Wait()
	}
	if q.head == len(q.tasks) {
		return task{}, false
	}
	t = q.tasks[q.head]
	q.tasks[q.head] = task{} // drop the job, and the checkpoint it holds
	q.head++
	return t, true
}

// RunJobs executes all jobs and returns their statistics indexed exactly
// like jobs. If any job fails, the error of the lowest-indexed failing job
// is returned (deterministic regardless of completion order) along with the
// full results slice; a failed job's slot holds whatever partial Stats its
// run produced.
func (h *Harness) RunJobs(jobs []Job) ([]*cpu.Stats, error) {
	out, errs := h.RunJobsErrs(jobs)
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Compare runs a benchmark under cfg and its derived baseline, scheduling
// both runs concurrently.
func (h *Harness) Compare(cfg cpu.Config, b *workloads.Benchmark) (*Result, error) {
	res, err := h.RunSuite(cfg, []*workloads.Benchmark{b})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunSuite compares every benchmark in the suite under cfg, fanning the
// baseline and LoopFrog runs of all benchmarks out over the worker pool.
// Results are ordered like the suite.
func (h *Harness) RunSuite(cfg cpu.Config, suite []*workloads.Benchmark) ([]*Result, error) {
	base := BaselineOf(cfg)
	jobs := make([]Job, 0, 2*len(suite))
	for _, b := range suite {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Job{Cfg: base, Prog: prog}, Job{Cfg: cfg, Prog: prog})
	}
	stats, errs := h.RunJobsErrs(jobs)
	out := make([]*Result, len(suite))
	for i, b := range suite {
		if err := errs[2*i]; err != nil {
			return nil, fmt.Errorf("sim: %s baseline: %w", b.Name, err)
		}
		if err := errs[2*i+1]; err != nil {
			return nil, fmt.Errorf("sim: %s loopfrog: %w", b.Name, err)
		}
		bs, ls := stats[2*i], stats[2*i+1]
		if bs.ArchInsts != ls.ArchInsts {
			return nil, fmt.Errorf("sim: %s: baseline committed %d insts but LoopFrog %d — sequential semantics violated",
				b.Name, bs.ArchInsts, ls.ArchInsts)
		}
		out[i] = &Result{Bench: b, Base: bs, LF: ls}
	}
	return out, nil
}
