// Command lfsim runs one program on the simulated core and prints run
// statistics. Inputs are LoopLang (.ll) or LFISA assembly (.s) files, or a
// named benchmark from the built-in suites with -bench.
//
// Usage:
//
//	lfsim [-baseline] [-threadlets N] [-nopack] [-ab] [-parallel N]
//	      [-sampled [-interval N] [-window N] [-warmup N]]
//	      [-spectre] [-mitigate]
//	      [-lint] [-faults spec] [-seed N] [-check]
//	      [-trace file] [-metrics file]
//	      [-cpuprofile file] [-memprofile file] (-bench name | file)
//
// -sampled estimates whole-run cycles with the two-tier sampled pipeline
// instead of simulating every instruction in the detailed model: tier 1
// fast-forwards the program functionally (warming predictor, cache and
// LoopFrog-engine state) and emits a checkpoint every -interval instructions;
// tier 2 simulates a detailed window per checkpoint (-warmup settle +
// -window measured instructions) with the windows fanned out across the
// worker pool, and the per-interval weighting combines the window IPCs into
// the whole-run estimate. Zero values take the tuned defaults
// (sim.DefaultSampleConfig). Combine with -ab for a sampled baseline/LoopFrog
// speedup estimate off a single tier-1 pass. Sampled runs are estimates over
// measured windows, so -faults and -check (whole-run machinery) refuse to
// combine with it. -trace works with a sampled run: every detailed window
// streams into one trace file, window i on trace pid i+1, so the windows
// render as separate process lanes in the trace viewer (-ab -trace still
// refuses: two configurations would interleave in one file).
//
// -spectre tracks taint through transient execution (wrong-path and
// pre-promotion speculative loads) and reports every confirmed speculative
// leak — a squashed load whose address derived from a transiently loaded
// value after it probed the cache — as a JSON report on stdout after the run
// statistics. A run with confirmed leaks exits 1; a clean run exits 0. The
// tracking is metadata-only: cycles and committed instructions are identical
// to an untracked run. -mitigate enables the ShadowBinding-style defence
// (cpu.Config.DelaySpeculativeLoadDeps): dependents of speculative loads
// stall until the load is promoted, which eliminates taint-derived addresses
// by construction at a timing cost; combine with -spectre to verify the leak
// report comes back clean. Both refuse to combine with -sampled — taint
// state cannot survive checkpoint seeding — and -spectre refuses -ab (the
// A/B mitigation-cost study lives in lfbench -spectre).
//
// -lint runs the hint-legality linter (see cmd/lflint) as a preflight and
// refuses to simulate a program with legality errors. Invalid flag values
// exit 2 with a usage message.
//
// -faults installs a deterministic fault-injection plan (internal/fault
// grammar: "all", or "kind[=prob],..." over conflict, conflict-miss,
// overflow, kill, poison, mispredict, panic), seeded by -seed. -check
// verifies the final architectural state (result register + memory) against
// the sequential reference interpreter after the run — the standard way to
// demonstrate that every injected fault was recovered exactly.
//
// Exit status: 0 success, 1 simulation failure (including watchdog trips,
// whose diagnostic snapshot is printed, and -check divergence), 2 usage.
//
// -trace writes a Perfetto/chrome://tracing-loadable trace-event JSON file
// (threadlet epoch spans plus a commit-slot attribution counter track);
// -metrics writes the full telemetry registry snapshot as JSON. See the
// Observability section of DESIGN.md for the schema.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fault"
	"loopfrog/internal/lint"
	"loopfrog/internal/sim"
	"loopfrog/internal/telemetry"
	"loopfrog/internal/workloads"
)

func main() {
	baseline := flag.Bool("baseline", false, "treat hints as NOPs (sequential baseline)")
	threadlets := flag.Int("threadlets", 4, "threadlet contexts")
	nopack := flag.Bool("nopack", false, "disable iteration packing")
	ab := flag.Bool("ab", false, "run baseline and LoopFrog, print the speedup")
	bench := flag.String("bench", "", "run a named built-in benchmark instead of a file")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
	tracePath := flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON file")
	metricsPath := flag.String("metrics", "", "write a telemetry metrics JSON file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	preflight := flag.Bool("lint", false, "lint the program before simulating; refuse to run on errors")
	faults := flag.String("faults", "", "fault-injection spec (e.g. \"all\" or \"conflict=0.05,kill\")")
	seed := flag.Int64("seed", 1, "fault-injection seed")
	check := flag.Bool("check", false, "verify the final state against the sequential reference")
	sampled := flag.Bool("sampled", false, "two-tier sampled estimate instead of a full detailed run")
	spectre := flag.Bool("spectre", false, "track speculative taint, print a JSON leak report, exit 1 on confirmed leaks")
	mitigate := flag.Bool("mitigate", false, "delay dependents of speculative loads until promotion (ShadowBinding-style)")
	interval := flag.Uint64("interval", 0, "sampled checkpoint interval in instructions (0 = default)")
	window := flag.Uint64("window", 0, "sampled measured window in instructions (0 = default)")
	warmup := flag.Uint64("warmup", 0, "sampled detailed warmup per window in instructions (0 = default)")
	flag.Parse()

	// Usage errors exit 2, before any work happens.
	if *threadlets < 1 {
		fmt.Fprintf(os.Stderr, "lfsim: -threadlets must be at least 1 (got %d)\n", *threadlets)
		flag.Usage()
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "lfsim: -parallel must be non-negative (got %d)\n", *parallel)
		flag.Usage()
		os.Exit(2)
	}
	plan, err := fault.Parse(*faults, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if (*spectre || *mitigate) && *sampled {
		fmt.Fprintln(os.Stderr, "lfsim: -spectre/-mitigate are incompatible with -sampled: taint state cannot survive checkpoint seeding")
		flag.Usage()
		os.Exit(2)
	}
	if *spectre && *ab {
		fmt.Fprintln(os.Stderr, "lfsim: -spectre is incompatible with -ab; use lfbench -spectre for the A/B mitigation-cost study")
		flag.Usage()
		os.Exit(2)
	}
	if *bench == "" && len(flag.Args()) != 1 {
		fmt.Fprintln(os.Stderr, "lfsim: need exactly one input (-bench name | file.ll | file.s)")
		flag.Usage()
		os.Exit(2)
	}

	sim.SetParallelism(*parallel)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lfsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lfsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lfsim:", err)
			}
		}()
	}

	prog, err := loadProgram(*bench, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsim:", err)
		os.Exit(1)
	}

	if *preflight {
		rep, perr := lint.Preflight(prog)
		for _, d := range rep.Diags {
			if d.Severity != lint.SevInfo {
				fmt.Fprintf(os.Stderr, "lfsim: lint: %s: %s [%s]: %s\n",
					d.Position(rep.Program), d.Severity, d.Code, d.Message)
			}
		}
		if perr != nil {
			fmt.Fprintln(os.Stderr, "lfsim: lint found hint-legality errors; refusing to simulate")
			os.Exit(1)
		}
	}

	cfg := cpu.DefaultConfig()
	cfg.Threadlets = *threadlets
	if *nopack {
		cfg.Pack.Enabled = false
	}
	if *baseline {
		cfg = sim.BaselineOf(cfg)
	}
	cfg.SpectreAnalysis = *spectre
	cfg.DelaySpeculativeLoadDeps = *mitigate

	if *sampled {
		// Sampled runs estimate timing from windows; fault injection and
		// state checks need the full detailed machine. Tracing works per
		// window (each window lands on its own trace pid), but an AB pair
		// would interleave two configurations in one file, so -ab -trace
		// still refuses.
		if *faults != "" || *check {
			fmt.Fprintln(os.Stderr, "lfsim: -sampled is incompatible with -faults and -check")
			flag.Usage()
			os.Exit(2)
		}
		if *tracePath != "" && *ab {
			fmt.Fprintln(os.Stderr, "lfsim: -sampled -ab is incompatible with -trace (two configurations would share one trace)")
			flag.Usage()
			os.Exit(2)
		}
		sc := sim.SampleConfig{Interval: *interval, Window: *window, Warmup: *warmup}
		if err := runSampled(cfg, prog, sc, *ab, *tracePath); err != nil {
			printRunError(err)
			os.Exit(1)
		}
		return
	}

	if *ab {
		// Injection applies to the LoopFrog run only: the baseline stays the
		// clean reference timing.
		stats, err := sim.RunJobs([]sim.Job{
			{Cfg: sim.BaselineOf(cfg), Prog: prog},
			{Cfg: cfg, Prog: prog, Faults: *faults, Seed: *seed},
		})
		if err != nil {
			printRunError(err)
			os.Exit(1)
		}
		base, lf := stats[0], stats[1]
		fmt.Printf("baseline: %8d cycles  IPC %.2f\n", base.Cycles, base.IPC())
		fmt.Printf("loopfrog: %8d cycles  IPC %.2f\n", lf.Cycles, lf.IPC())
		fmt.Printf("speedup:  %.3fx\n", float64(base.Cycles)/float64(lf.Cycles))
		if *metricsPath != "" {
			reg := telemetry.NewRegistry()
			if err := telemetry.CollectHarness(reg, sim.DefaultHarness()); err == nil {
				err = writeRegistry(reg, *metricsPath)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "lfsim:", err)
				os.Exit(1)
			}
		}
		return
	}

	// The single-run path drives a machine directly so the telemetry layer
	// can hook it: -trace streams lifecycle spans and commit-slot counters
	// while the run executes, -metrics snapshots every component after it.
	m, err := cpu.NewMachine(cfg, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsim:", err)
		os.Exit(1)
	}
	if plan != nil {
		m.SetFaultInjector(plan)
	}
	var tr *telemetry.Trace
	var mt *telemetry.MachineTracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfsim:", err)
			os.Exit(1)
		}
		tr = telemetry.NewTrace(f)
		mt = telemetry.AttachMachine(m, tr, 0)
	}
	st, runErr := m.Run()
	if mt != nil {
		mt.Finish()
		if err := tr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lfsim: trace:", err)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		reg := telemetry.NewRegistry()
		if err := telemetry.CollectMachine(reg, m); err == nil {
			err = writeRegistry(reg, *metricsPath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfsim:", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		printRunError(runErr)
		os.Exit(1)
	}
	printStats(st)
	if plan != nil {
		printInjected(plan)
	}
	if *check {
		// Compare the ABI result register and all of memory: the hint
		// contract does not preserve dead body temporaries, so the full
		// register file is only comparable for normalising programs.
		div, err := fault.Check(m, prog, fault.CheckOpts{Regs: fault.ResultRegs()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfsim:", err)
			os.Exit(1)
		}
		if div != "" {
			fmt.Fprintf(os.Stderr, "lfsim: state diverged from sequential reference: %s\n", div)
			os.Exit(1)
		}
		fmt.Println("check: final state matches the sequential reference (x10 + memory)")
	}
	if *spectre {
		rep := m.LeakReport()
		out := struct {
			Program   string `json:"program"`
			Mitigated bool   `json:"mitigated"`
			cpu.LeakReport
		}{Program: prog.Name, Mitigated: *mitigate, LeakReport: rep}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "lfsim:", err)
			os.Exit(1)
		}
		if rep.Confirmed > 0 {
			fmt.Fprintf(os.Stderr, "lfsim: %d speculative leak(s) confirmed at %d site(s)\n", rep.Confirmed, len(rep.Sites))
			os.Exit(1)
		}
	}
}

// runSampled runs the two-tier sampled pipeline and prints its estimate. With
// ab it runs the baseline/LoopFrog pair off one tier-1 pass and prints the
// phase-weighted speedup; otherwise it estimates the single configured run.
// A non-empty tracePath streams every detailed window into one trace file,
// window i on trace pid i+1 (cache-satisfied windows leave no spans).
func runSampled(cfg cpu.Config, prog *asm.Program, sc sim.SampleConfig, ab bool, tracePath string) error {
	if ab {
		res, err := sim.RunSampledAB(cfg, prog, sc)
		if err != nil {
			return err
		}
		fmt.Printf("baseline: %8.0f cycles (est)  IPC %.2f\n", res.Base.EstCycles, res.Base.IPC())
		fmt.Printf("loopfrog: %8.0f cycles (est)  IPC %.2f\n", res.LF.EstCycles, res.LF.IPC())
		fmt.Printf("speedup:  %.3fx (phase-weighted estimate)\n", res.EstSpeedup)
		printSampledCost(res.LF)
		return nil
	}
	var observe func(win int, m *cpu.Machine)
	var finishTrace func()
	var tr *telemetry.Trace
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tr = telemetry.NewTrace(f)
		observe, finishTrace = telemetry.TraceSampledWindows(tr, 0)
	}
	st, err := sim.DefaultHarness().RunSampledObservedCtx(context.Background(), cfg, prog, sc, observe)
	if finishTrace != nil {
		finishTrace()
		if cerr := tr.Close(); cerr != nil && err == nil {
			return fmt.Errorf("trace: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("cycles            %.0f (sampled estimate)\n", st.EstCycles)
	fmt.Printf("instructions      %d (IPC %.2f)\n", st.TotalInsts, st.IPC())
	printSampledCost(st)
	return nil
}

// printSampledCost prints the sampled pipeline's cost/shape line.
func printSampledCost(st *sim.SampledStats) {
	fmt.Printf("sampled           %d windows (interval %d, window %d, warmup %d), detailed share %.0f%%\n",
		len(st.Windows), st.Sample.Interval, st.Sample.Window, st.Sample.Warmup, 100*st.DetailedShare)
	fmt.Printf("throughput        tier-1 %.1fM insts/s, effective %.1fM insts/s\n",
		st.Tier1IPS/1e6, st.EffectiveIPS/1e6)
}

// printRunError reports a failed run; a watchdog ProgressError additionally
// prints its diagnostic machine snapshot.
func printRunError(err error) {
	fmt.Fprintln(os.Stderr, "lfsim:", err)
	var pe *cpu.ProgressError
	if errors.As(err, &pe) {
		fmt.Fprint(os.Stderr, pe.Snapshot.String())
	}
}

// printInjected summarises the fault plan's per-kind injection counters.
func printInjected(plan *fault.Plan) {
	counts := plan.Counts()
	var parts []string
	for _, name := range fault.KindNames() {
		if c := counts[name]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, c))
		}
	}
	if len(parts) == 0 {
		fmt.Printf("faults injected    none (plan %q, seed %d)\n", plan.Spec(), plan.Seed())
		return
	}
	fmt.Printf("faults injected    %s (plan %q, seed %d)\n", strings.Join(parts, " "), plan.Spec(), plan.Seed())
}

func writeRegistry(reg *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadProgram(bench string, args []string) (*asm.Program, error) {
	if bench != "" {
		if b := workloads.Find(bench); b != nil {
			return b.Program()
		}
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: lfsim [flags] (-bench name | file.ll | file.s)")
	}
	prog, diags, err := workloads.LoadFile(args[0])
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, "lfsim: note:", d)
	}
	return prog, err
}

func printStats(st *cpu.Stats) {
	fmt.Printf("cycles            %d\n", st.Cycles)
	fmt.Printf("instructions      %d (IPC %.2f)\n", st.ArchInsts, st.IPC())
	fmt.Printf("branches          %d (%.2f%% mispredicted)\n", st.Branches, 100*st.MispredictRate())
	fmt.Printf("loads/stores      %d/%d\n", st.Loads, st.Stores)
	fmt.Printf("detaches          %d (spawns %d, packed %d, no-context %d)\n",
		st.Detaches, st.Spawns, st.PackedSpawns, st.DetachNoContext)
	fmt.Printf("threadlet retires %d\n", st.Retires)
	fmt.Printf("squashes          conflict=%d overflow=%d sync=%d pack=%d wrongpath=%d external=%d\n",
		st.Squashes[0], st.Squashes[1], st.Squashes[2], st.Squashes[3], st.Squashes[4], st.Squashes[5])
	fmt.Printf("failed spec insts %d\n", st.SpecCommitted)
	total := uint64(0)
	for _, c := range st.LiveCycles {
		total += c
	}
	if total > 0 {
		fmt.Printf("occupancy         1:%d%% 2:%d%% 3:%d%% 4:%d%%\n",
			100*st.LiveCycles[0]/total, 100*st.LiveCycles[1]/total,
			100*st.LiveCycles[2]/total, 100*st.LiveCycles[3]/total)
	}
}
