package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

// failingJob returns a job that deterministically fails: a cycle budget far
// too small for the benchmark, tripping ErrCycleLimit.
func failingJob(t *testing.T) Job {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 500
	return Job{Cfg: cfg, Prog: workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()}
}

// TestFailedRunsNeverCached is the regression test for the error-caching bug:
// two concurrent identical failing jobs must both complete with an error (no
// deadlocked flight), and the failure must not be retained in the cache.
func TestFailedRunsNeverCached(t *testing.T) {
	h := &Harness{Workers: 2, Cache: NewRunCache()}
	j := failingJob(t)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			defer wg.Done()
			_, errs[i] = h.runOne(context.Background(), j)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent identical failing jobs deadlocked")
	}
	for i, err := range errs {
		if !errors.Is(err, cpu.ErrCycleLimit) {
			t.Errorf("job %d: err = %v, want ErrCycleLimit", i, err)
		}
	}
	if n := h.Cache.Len(); n != 0 {
		t.Errorf("failed run left %d cache entries, want 0", n)
	}
	if h.Cache.Failures() == 0 {
		t.Error("cache failure eviction counter did not move")
	}
	// A third, sequential request must re-execute, not replay a cached error.
	misses := h.Cache.Misses()
	if _, err := h.runOne(context.Background(), j); !errors.Is(err, cpu.ErrCycleLimit) {
		t.Errorf("third run: err = %v, want ErrCycleLimit", err)
	}
	if h.Cache.Misses() == misses {
		t.Error("third identical failing job was served from the cache")
	}
}

// TestPanicRetryAndQuarantine drives a job whose injected fault plan panics
// deterministically: the harness must recover the panic, retry once, and
// quarantine the key when the retry panics too. A later identical job fails
// fast with ErrQuarantined instead of crashing a third time.
func TestPanicRetryAndQuarantine(t *testing.T) {
	h := &Harness{Workers: 1, Cache: NewRunCache()}
	prog := workloads.ChaosSuite()[0].MustProgram()
	j := Job{Cfg: cpu.DefaultConfig(), Prog: prog, Faults: "panic=1", Seed: 1}

	_, err := h.runOne(context.Background(), j)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("panic error does not name the injected panic: %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	st := h.Stats()
	if st.Panics != 2 || st.Retries != 1 || st.Quarantined != 1 {
		t.Errorf("panics=%d retries=%d quarantined=%d, want 2/1/1", st.Panics, st.Retries, st.Quarantined)
	}

	if _, err := h.runOne(context.Background(), j); !errors.Is(err, ErrQuarantined) {
		t.Errorf("repeat offender re-ran: err = %v, want ErrQuarantined", err)
	}
	if got := h.Stats().Panics; got != 2 {
		t.Errorf("quarantined job still executed: panics=%d, want 2", got)
	}
}

// TestJobTimeout: a job with an already-expired deadline must return a
// wrapped context.DeadlineExceeded, count a timeout, and leave no cache entry.
func TestJobTimeout(t *testing.T) {
	h := &Harness{Workers: 1, Cache: NewRunCache()}
	j := Job{
		Cfg:     cpu.DefaultConfig(),
		Prog:    workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram(),
		Timeout: time.Nanosecond,
	}
	_, err := h.runOne(context.Background(), j)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if h.Stats().Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", h.Stats().Timeouts)
	}
	if n := h.Cache.Len(); n != 0 {
		t.Errorf("timed-out run left %d cache entries, want 0", n)
	}
}

// TestPartialSweepResults: a sweep containing a crashing job still completes
// every other job and reports results and errors per slot.
func TestPartialSweepResults(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	chaosProg := workloads.ChaosSuite()[0].MustProgram()
	cfg := cpu.DefaultConfig()
	h := &Harness{Workers: 4, Cache: NewRunCache()}
	jobs := []Job{
		{Cfg: BaselineOf(cfg), Prog: prog},
		{Cfg: cfg, Prog: chaosProg, Faults: "panic=1", Seed: 7},
		{Cfg: cfg, Prog: prog},
	}
	out, errs := h.RunJobsCtx(context.Background(), jobs)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy jobs failed: %v / %v", errs[0], errs[2])
	}
	if out[0] == nil || out[2] == nil || out[0].Cycles == 0 || out[2].Cycles == 0 {
		t.Fatal("healthy jobs produced no stats")
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("crashing job: err = %v, want PanicError", errs[1])
	}
	// RunJobs reports the lowest-indexed failure but still returns the slice.
	if _, err := h.RunJobs(jobs); err == nil {
		t.Fatal("RunJobs swallowed the job failure")
	}
}

// TestFaultJobKeying: an injected job must never share a cache slot with the
// clean run of the same (config, program), and different seeds must be
// distinct keys too.
func TestFaultJobKeying(t *testing.T) {
	prog := workloads.ChaosSuite()[0].MustProgram()
	cfg := cpu.DefaultConfig()
	clean := Job{Cfg: cfg, Prog: prog}
	faulty := Job{Cfg: cfg, Prog: prog, Faults: "conflict", Seed: 1}
	faulty2 := Job{Cfg: cfg, Prog: prog, Faults: "conflict", Seed: 2}
	if jobKey(clean) == jobKey(faulty) {
		t.Error("fault spec not part of the job key")
	}
	if jobKey(faulty) == jobKey(faulty2) {
		t.Error("fault seed not part of the job key")
	}
	if jobKey(clean) != jobKey(Job{Cfg: cfg, Prog: prog, Faults: "none", Seed: 9}) {
		t.Error(`"none" fault spec keyed differently from a clean job`)
	}

	h := &Harness{Workers: 2, Cache: NewRunCache()}
	out, errs := h.RunJobsCtx(context.Background(), []Job{clean, faulty})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if h.Cache.Misses() != 2 {
		t.Errorf("clean and injected runs shared a simulation: misses=%d, want 2", h.Cache.Misses())
	}
	// Injection must have perturbed the run (the chaos workloads squash under
	// forced conflicts), yet both complete.
	if out[0].Cycles == out[1].Cycles && out[0].Squashes == out[1].Squashes {
		t.Log("note: injected run identical to clean run (no faults fired)")
	}
}
