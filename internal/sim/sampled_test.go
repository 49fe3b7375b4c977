package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fastsim"
	"loopfrog/internal/isa"
	"loopfrog/internal/ref"
	"loopfrog/internal/workloads"
)

// sampledRaceSubset is what TestSampledAccuracySuite checks under -race: the
// race detector makes the full suite's detailed runs several times slower,
// enough to push the package's race run toward the default test timeout.
// The subset keeps the outlier povray and one workload of each of four
// other bottleneck classes (memory, dependency chain, low trip count, small
// loops); the full suite is checked without -race.
var sampledRaceSubset = map[string]bool{
	"povray": true, "mcf": true, "x264": true, "deepsjeng": true, "leela": true,
}

// TestSampledAccuracySuite checks the headline property: the sampled cycle
// estimate is within 2% of the full detailed run, for baseline and LoopFrog,
// on every CPU2017 workload (the two documented outliers get 5%).
func TestSampledAccuracySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite accuracy check")
	}
	h := NewHarness()
	cfg := cpu.DefaultConfig()
	for _, b := range workloads.CPU2017() {
		b := b
		if raceEnabled && !sampledRaceSubset[b.Name] {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			prog := b.MustProgram()
			stats, errs := h.RunJobsCtx(context.Background(), []Job{
				{Cfg: BaselineOf(cfg), Prog: prog},
				{Cfg: cfg, Prog: prog},
			})
			for _, e := range errs {
				if e != nil {
					t.Fatal(e)
				}
			}
			res, err := h.RunSampledAB(cfg, prog, SampleConfig{})
			if err != nil {
				t.Fatal(err)
			}
			checkErr := func(side string, est float64, full int64, budget float64) {
				e := est/float64(full) - 1
				if e < 0 {
					e = -e
				}
				t.Logf("%s: est %.0f cycles, full %d, err %.3f%%", side, est, full, 100*e)
				if e > budget {
					t.Errorf("%s cycle error %.2f%% exceeds %.1f%%", side, 100*e, 100*budget)
				}
			}
			lfBudget := SampledErrBudget
			if SampledOutliers[b.Name] {
				lfBudget = SampledOutlierBudget
			}
			checkErr("baseline", res.Base.EstCycles, stats[0].Cycles, SampledErrBudget)
			checkErr("loopfrog", res.LF.EstCycles, stats[1].Cycles, lfBudget)
		})
	}
}

// TestCheckpointDeterminism checks the property the whole pipeline rests on:
// a detailed run resumed from a tier-1 checkpoint and run to completion ends
// in exactly the architectural state of the uninterrupted program, for every
// suite workload.
func TestCheckpointDeterminism(t *testing.T) {
	cfg := cpu.DefaultConfig()
	base := BaselineOf(cfg)
	for _, b := range append(workloads.CPU2017(), workloads.CPU2006()...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog := b.MustProgram()
			oracle := ref.MustRun(prog, ref.Options{})
			fres, err := fastsim.Run(prog, fastsim.Options{
				CheckpointEvery: 20_000, BPred: &cfg.BPred, Hier: &cfg.Hier,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(fres.Checkpoints) == 0 {
				t.Fatal("no checkpoints")
			}
			ck := fres.Checkpoints[len(fres.Checkpoints)/2]
			check := func(name string, c cpu.Config, fullRegs bool) {
				m, err := cpu.NewMachineFromCheckpoint(c, prog, ck)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Halted {
					t.Fatalf("%s: resumed run did not halt", name)
				}
				if ck.Insts+st.ArchInsts != oracle.DynInsts {
					t.Fatalf("%s: instruction counts: %d (to ckpt) + %d (resumed) != %d (full)",
						name, ck.Insts, st.ArchInsts, oracle.DynInsts)
				}
				regs := m.FinalRegs()
				if fullRegs {
					// The baseline commits strictly in order: every register
					// must match the oracle bit for bit.
					if regs != oracle.Regs {
						t.Fatalf("%s: resumed run's final registers differ from oracle", name)
					}
				} else if regs[isa.X(10)] != oracle.Regs[isa.X(10)] {
					// LoopFrog guarantees the program's observable results —
					// the ABI result register and memory — not dead scratch
					// registers after packed regions.
					t.Fatalf("%s: resumed run's result register differs: %d want %d",
						name, regs[isa.X(10)], oracle.Regs[isa.X(10)])
				}
				if !m.Memory().Equal(oracle.Mem) {
					t.Fatalf("%s: resumed run's final memory differs from oracle:\n%s", name, m.Memory().Diff(oracle.Mem))
				}
			}
			check("baseline", base, true)
			check("loopfrog", cfg, false)
		})
	}
}

// TestSampledWorkerDeterminism checks the sampled estimate is identical with
// a serial pool and a wide pool (fresh caches: every window actually runs).
func TestSampledWorkerDeterminism(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	cfg := cpu.DefaultConfig()
	run := func(workers int) *SampledResult {
		h := &Harness{Workers: workers, Cache: NewRunCache()}
		res, err := h.RunSampledAB(cfg, prog, SampleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	if serial.Base.EstCycles != wide.Base.EstCycles || serial.LF.EstCycles != wide.LF.EstCycles {
		t.Fatalf("estimates depend on worker count: serial (%.2f, %.2f) wide (%.2f, %.2f)",
			serial.Base.EstCycles, serial.LF.EstCycles, wide.Base.EstCycles, wide.LF.EstCycles)
	}
	if serial.EstSpeedup != wide.EstSpeedup {
		t.Fatalf("speedup depends on worker count: %.4f vs %.4f", serial.EstSpeedup, wide.EstSpeedup)
	}
	if len(serial.Base.Windows) != len(wide.Base.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(serial.Base.Windows), len(wide.Base.Windows))
	}
	for i := range serial.Base.Windows {
		if serial.Base.Windows[i] != wide.Base.Windows[i] || serial.LF.Windows[i] != wide.LF.Windows[i] {
			t.Fatalf("window %d differs between worker counts", i)
		}
	}
}

// TestSampledSingleMatchesAB checks that a single-config sampled run and the
// matching side of the A/B run assemble one estimate: same windows, cycles and
// region ledgers (host timings aside). Each run gets a fresh cache, so every
// window actually runs.
func TestSampledSingleMatchesAB(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for _, name := range []string{"mcf", "leela"} {
		t.Run(name, func(t *testing.T) {
			prog := workloads.ByName(workloads.CPU2017(), name).MustProgram()
			fresh := func() *Harness { return &Harness{Workers: 2, Cache: NewRunCache()} }
			ab, err := fresh().RunSampledAB(cfg, prog, SampleConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []struct {
				name string
				cfg  cpu.Config
				ab   *SampledStats
			}{
				{"loopfrog", cfg, ab.LF},
				// The A/B baseline windows seed from the LoopFrog side's tier-1
				// pass; a baseline-only run warms without the engine. The engine
				// warm state lives only in the checkpoint's Mon/Pack/Region
				// fields, which baseline windows strip, so the two estimates
				// agree exactly as well.
				{"baseline", BaselineOf(cfg), ab.Base},
			} {
				single, err := fresh().RunSampledCtx(context.Background(), side.cfg, prog, SampleConfig{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sampledDiff(single, side.ab); d != "" {
					t.Errorf("%s: single-config estimate differs from the A/B side: %s", side.name, d)
				}
			}
		})
	}
}

// sampledDiff names the first simulated field in which a and b differ, or
// returns "" when they agree (host timings are not compared).
func sampledDiff(a, b *SampledStats) string {
	switch {
	case a.TotalInsts != b.TotalInsts:
		return fmt.Sprintf("TotalInsts %d vs %d", a.TotalInsts, b.TotalInsts)
	case a.EstCycles != b.EstCycles:
		return fmt.Sprintf("EstCycles %v vs %v", a.EstCycles, b.EstCycles)
	case a.CPI != b.CPI || a.DetailedInsts != b.DetailedInsts || a.DetailedShare != b.DetailedShare:
		return "CPI or detailed share"
	case !reflect.DeepEqual(a.Windows, b.Windows):
		return "windows"
	case !reflect.DeepEqual(a.Regions, b.Regions):
		return "region ledgers"
	}
	return ""
}

// TestConcurrentCheckpointSeeding seeds several detailed windows from one
// tier-1 checkpoint at once, as the harness pool does, and checks that each
// window matches a serial run and that the shared checkpoint image is left
// untouched. Run under -race it also checks that seeding from a checkpoint
// writes nothing to it: its copy-on-write memory owns no pages.
func TestConcurrentCheckpointSeeding(t *testing.T) {
	const seeders = 4
	sc := SampleConfig{Interval: 50_000, Window: 10_000, Warmup: 2_000}
	cfg := cpu.DefaultConfig()
	for _, name := range []string{"mcf", "leela"} {
		t.Run(name, func(t *testing.T) {
			prog := workloads.ByName(workloads.CPU2017(), name).MustProgram()
			tier1 := func() *cpu.Checkpoint {
				var cks []*cpu.Checkpoint
				_, _, err := tier1(cfg, prog, sc.withDefaults(), func(ck *cpu.Checkpoint) error {
					cks = append(cks, ck)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return cks[len(cks)/2]
			}
			// Two tier-1 passes give two checkpoints that share no pages:
			// one seeds the serial reference and stays untouched, the
			// other is seeded concurrently.
			ref, shared := tier1(), tier1()
			jobs := func(ck *cpu.Checkpoint) []Job {
				return []Job{windowJob(BaselineOf(cfg), prog, ck, sc), windowJob(cfg, prog, ck, sc)}
			}
			window := func(j Job) (*cpu.Stats, error) {
				m, err := cpu.NewMachineFromCheckpoint(j.Cfg, j.Prog, j.Ckpt)
				if err != nil {
					return nil, err
				}
				return m.Run()
			}
			var want []*cpu.Stats
			for _, j := range jobs(ref) {
				st, err := window(j)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, st)
			}

			got := make([][]*cpu.Stats, seeders)
			errs := make([]error, seeders)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, j := range jobs(shared) {
						st, err := window(j)
						if err != nil {
							errs[g] = err
							return
						}
						got[g] = append(got[g], st)
					}
				}()
			}
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Fatalf("seeder %d: %v", g, errs[g])
				}
				for i, st := range got[g] {
					if st.Cycles != want[i].Cycles || st.ArchInsts != want[i].ArchInsts {
						t.Errorf("seeder %d window %d: %d cycles, %d insts; serial run %d cycles, %d insts",
							g, i, st.Cycles, st.ArchInsts, want[i].Cycles, want[i].ArchInsts)
					}
				}
			}
			if !shared.Mem.Equal(ref.Mem) {
				t.Errorf("seeded windows wrote to the checkpoint image:\n%s", shared.Mem.Diff(ref.Mem))
			}
		})
	}
}

// TestSampledCancelNoLeak cancels a sampled run mid-flight and checks every
// worker goroutine exits.
func TestSampledCancelNoLeak(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "xz").MustProgram()
	cfg := cpu.DefaultConfig()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	h := &Harness{Workers: 4, Cache: NewRunCache()}
	go func() {
		defer close(done)
		_, err := h.RunSampledCtx(ctx, cfg, prog, SampleConfig{}, nil)
		if err == nil {
			t.Error("cancelled sampled run returned no error")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sampled run did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancellation: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSampledJobKeys is the collision regression for sampled-run cache
// identity: the window shape and the checkpoint position/warm-state shape
// must all be part of the key, and equal jobs must still share one.
func TestSampledJobKeys(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	cfg := cpu.DefaultConfig()
	fres, err := fastsim.Run(prog, fastsim.Options{CheckpointEvery: 20_000, BPred: &cfg.BPred, Hier: &cfg.Hier})
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Checkpoints) < 2 {
		t.Fatal("need at least two checkpoints")
	}
	ck0, ck1 := fres.Checkpoints[0], fres.Checkpoints[1]
	cold := *ck0
	cold.BP, cold.Hier = nil, nil
	win := cfg
	win.WarmupInsts = 1_000
	win.MaxArchInsts = 3_000
	win2 := cfg
	win2.WarmupInsts = 2_000
	win2.MaxArchInsts = 4_000

	full := Job{Cfg: cfg, Prog: prog}
	jobs := map[string]Job{
		"full run":              full,
		"window @0":             {Cfg: win, Prog: prog, Ckpt: ck0},
		"window @1":             {Cfg: win, Prog: prog, Ckpt: ck1},
		"window @0 cold":        {Cfg: win, Prog: prog, Ckpt: &cold},
		"window @0 other shape": {Cfg: win2, Prog: prog, Ckpt: ck0},
		"budget-only full":      {Cfg: win, Prog: prog},
	}
	seen := map[string]string{}
	for name, j := range jobs {
		k := jobKey(j)
		if prev, dup := seen[k]; dup {
			t.Errorf("cache-key collision: %q and %q share key", prev, name)
		}
		seen[k] = name
	}
	// Identical jobs must share a key — including the checkpoint, by identity
	// of position and warm shape, not pointer.
	ck0b := *ck0
	if jobKey(Job{Cfg: win, Prog: prog, Ckpt: ck0}) != jobKey(Job{Cfg: win, Prog: prog, Ckpt: &ck0b}) {
		t.Error("equal sampled jobs do not share a cache key")
	}
}

// TestSampledTier1FailureStopsWindows fails tier 1 after it has streamed
// about 120 checkpoints (the program jumps out of its code after 6M
// instructions): the sampled call must return tier 1's error, cancel the
// windows it started, start none of those still queued, and leave no
// goroutine behind. The call, and a streamed call that succeeds, each count
// as one harness batch with a utilization of at most 1.
func TestSampledTier1FailureStopsWindows(t *testing.T) {
	bad := asm.MustAssemble("jumps-out", `
main:   li   t0, 0
        li   t1, 3000000
loop:   addi t0, t0, 1
        blt  t0, t1, loop
        li   t2, 1000000
        jalr zero, t2, 0
        halt
`)
	cfg := cpu.DefaultConfig()
	before := runtime.NumGoroutine()
	h := &Harness{Workers: 2}
	var started atomic.Int64
	_, err := h.RunSampledCtx(context.Background(), cfg, bad, SampleConfig{},
		func(int, *cpu.Machine) { started.Add(1) })
	if err == nil || !strings.Contains(err.Error(), "tier-1 functional pass") || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want tier 1's pc-out-of-range error", err)
	}
	// Tier 1 runs far ahead of two workers, so most windows are still
	// queued when it fails.
	if n := started.Load(); n == 0 || n >= 100 {
		t.Errorf("%d of ~120 windows started; want some, but not the queued ones", n)
	}
	if st := h.Stats(); st.Batches != 1 || st.Utilization > 1 {
		t.Errorf("failed call: %d batches, utilization %.3f; want 1 batch, utilization <= 1", st.Batches, st.Utilization)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after tier 1 failed: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	good := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	h = &Harness{Workers: 2}
	if _, err := h.RunSampledABCtx(context.Background(), cfg, good, SampleConfig{Interval: 50_000, Window: 10_000, Warmup: 2_000}); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Batches != 1 || st.Jobs < 2 || st.Utilization > 1 {
		t.Errorf("streamed call: %d batches, %d jobs, utilization %.3f; want 1 batch, >= 2 jobs, utilization <= 1", st.Batches, st.Jobs, st.Utilization)
	}
}
