package sim

import (
	"reflect"
	"sync"
	"testing"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fault"
	"loopfrog/internal/workloads"
)

// fastSuite returns the quickest benchmark stand-ins, keeping the
// determinism test cheap enough to run under -race.
func fastSuite(t *testing.T) []*workloads.Benchmark {
	t.Helper()
	var out []*workloads.Benchmark
	for _, name := range []string{"deepsjeng", "blender", "x264"} {
		b := workloads.ByName(workloads.CPU2017(), name)
		if b == nil {
			t.Fatalf("benchmark %s missing", name)
		}
		out = append(out, b)
	}
	return out
}

// TestRunSuiteDeterminism is the regression test for the parallel harness:
// a suite evaluated by one worker and by many workers (both without a cache,
// so every run actually simulates) must produce deeply equal statistics.
func TestRunSuiteDeterminism(t *testing.T) {
	suite := fastSuite(t)
	cfg := cpu.DefaultConfig()
	seq := &Harness{Workers: 1}
	par := &Harness{Workers: 8}
	resSeq, err := seq.RunSuite(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := par.RunSuite(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(resSeq) != len(resPar) {
		t.Fatalf("result count differs: %d vs %d", len(resSeq), len(resPar))
	}
	for i := range resSeq {
		if resSeq[i].Bench != resPar[i].Bench {
			t.Errorf("result %d ordered differently: %s vs %s", i, resSeq[i].Bench.Name, resPar[i].Bench.Name)
		}
		if !reflect.DeepEqual(resSeq[i].Base, resPar[i].Base) {
			t.Errorf("%s: baseline stats differ between 1 and 8 workers", resSeq[i].Bench.Name)
		}
		if !reflect.DeepEqual(resSeq[i].LF, resPar[i].LF) {
			t.Errorf("%s: loopfrog stats differ between 1 and 8 workers", resSeq[i].Bench.Name)
		}
	}
}

// TestCacheKey checks that the key separates configs differing in any
// behaviourally relevant field and merges configs that cannot differ.
func TestCacheKey(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	base := cpu.DefaultConfig()

	granule := base
	granule.SSB.GranuleBytes *= 2
	if CacheKey(base, prog) == CacheKey(granule, prog) {
		t.Error("key does not distinguish SSB granule sizes")
	}

	width := base
	width.Width++
	if CacheKey(base, prog) == CacheKey(width, prog) {
		t.Error("key does not distinguish core widths")
	}

	// With a single threadlet context the LoopFrog apparatus is inert: two
	// baselines differing only in SSB geometry must share one cache slot
	// (that sharing is what deduplicates sweep baselines).
	b1, b2 := BaselineOf(base), BaselineOf(granule)
	if CacheKey(b1, prog) != CacheKey(b2, prog) {
		t.Error("baselines with different SSB granules keyed separately")
	}

	// A zero MaxCycles and the explicit default are the same run.
	def := base
	def.MaxCycles = 200_000_000
	if CacheKey(base, prog) != CacheKey(def, prog) {
		t.Error("default MaxCycles keyed separately from explicit value")
	}

	other := workloads.ByName(workloads.CPU2017(), "blender").MustProgram()
	if CacheKey(base, prog) == CacheKey(base, other) {
		t.Error("key does not distinguish programs")
	}
}

// TestRunCacheDedup checks the hit/miss/singleflight accounting and that
// cached results are returned as independent copies.
func TestRunCacheDedup(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	cfg := cpu.DefaultConfig()
	c := NewRunCache()
	run := func(cfg cpu.Config, prog *asm.Program) (*cpu.Stats, error) {
		return c.Do(CacheKey(cfg, prog), func() (*cpu.Stats, error) { return Run(cfg, prog) })
	}

	st1, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 1 || c.Hits() != 1 {
		t.Errorf("after two sequential runs: misses=%d hits=%d, want 1/1", c.Misses(), c.Hits())
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Error("cached stats differ from the original run")
	}
	if st1 == st2 {
		t.Error("cache returned the same Stats pointer twice")
	}
	saved := st2.Cycles
	st1.Cycles = 0 // corrupting one copy must not leak into the cache
	st3, _ := run(cfg, prog)
	if st3.Cycles != saved {
		t.Error("mutating a returned Stats corrupted the cache")
	}

	// Concurrent requests for one new key: exactly one simulation, everyone
	// else either joins it in flight or hits the completed entry.
	granule := cfg
	granule.SSB.GranuleBytes *= 2
	const n = 8
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, err := run(granule, prog); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c.Misses() != 2 {
		t.Errorf("concurrent requests ran %d simulations for the second key, want 1", c.Misses()-1)
	}
	// Two sequential hits on the first key plus n-1 deduplicated concurrent
	// requests on the second.
	if c.Hits()+c.FlightJoins() != 2+n-1 {
		t.Errorf("hits=%d flight-joins=%d, want them to cover %d deduplicated requests",
			c.Hits(), c.FlightJoins(), 2+n-1)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d keys, want 2", c.Len())
	}
}

// TestHarnessWithoutCache checks the cache disable switch: a nil Cache runs
// every job directly and still produces correct, ordered results.
func TestHarnessWithoutCache(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	cfg := cpu.DefaultConfig()
	h := &Harness{Workers: 4} // no cache
	jobs := []Job{
		{Cfg: BaselineOf(cfg), Prog: prog},
		{Cfg: cfg, Prog: prog},
		{Cfg: BaselineOf(cfg), Prog: prog},
	}
	stats, err := h.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats[0], stats[2]) {
		t.Error("identical jobs produced different stats")
	}
	if stats[0] == stats[2] {
		t.Error("uncached harness shared a Stats pointer between jobs")
	}
	if stats[0].ArchInsts != stats[1].ArchInsts {
		t.Error("baseline and loopfrog committed different instruction counts")
	}
}

// TestDefaultHarnessCacheDedup checks that the package-level entry points
// share the baseline across sweep points, the way Figures 9/10 do.
func TestDefaultHarnessCacheDedup(t *testing.T) {
	c := NewRunCache()
	h := &Harness{Workers: 2, Cache: c}
	cfgA := cpu.DefaultConfig()
	cfgB := cpu.DefaultConfig()
	cfgB.SSB.GranuleBytes *= 2
	suite := []*workloads.Benchmark{workloads.ByName(workloads.CPU2017(), "blender")}
	if _, err := h.RunSuite(cfgA, suite); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunSuite(cfgB, suite); err != nil {
		t.Fatal(err)
	}
	// Two sweep points: two LoopFrog runs but only one shared baseline.
	if c.Misses() != 3 {
		t.Errorf("two sweep points ran %d simulations, want 3 (shared baseline)", c.Misses())
	}
	if c.Hits()+c.FlightJoins() != 1 {
		t.Errorf("baseline not deduplicated: hits=%d flight-joins=%d", c.Hits(), c.FlightJoins())
	}
}

// TestObservedMachineReadableAfterRun checks what a caller that keeps the
// machine from Job.Observe may still read once the harness has run and
// recycled it, after further machines have reused its buffers: its final
// registers and memory must match the sequential reference.
func TestObservedMachineReadableAfterRun(t *testing.T) {
	h := &Harness{Workers: 2}
	var jobs []Job
	var machines []*cpu.Machine
	for _, b := range fastSuite(t) {
		for _, cfg := range []cpu.Config{cpu.DefaultConfig(), BaselineOf(cpu.DefaultConfig())} {
			i := len(jobs)
			machines = append(machines, nil)
			jobs = append(jobs, Job{Cfg: cfg, Prog: b.MustProgram(), Observe: func(m *cpu.Machine) { machines[i] = m }})
		}
	}
	if _, err := h.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	for i, m := range machines {
		diff, err := fault.Check(m, jobs[i].Prog, fault.CheckOpts{Regs: fault.ResultRegs()})
		if err != nil || diff != "" {
			t.Errorf("%s job %d: after the run: %v %s", jobs[i].Prog.Name, i, err, diff)
		}
	}
}
