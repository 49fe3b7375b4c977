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
// speedup estimate off a single tier-1 pass: the ratio of the two sides'
// estimated cycles. Sampled runs are estimates over measured windows, so
// -faults and -check (whole-run machinery) refuse to combine with it. -trace
// works with a sampled run: every detailed window streams into one trace
// file, window i on trace pid i+1, so the windows render as separate process
// lanes in the trace viewer.
//
// Flag combinations follow lfservd's job-spec rules (internal/serve), and
// every run executes exactly as a job with the same spec does, on the
// simulation harness; -ab, -sampled and -sampled -ab print the numbers its
// result carries. -baseline -ab is a usage error. -ab and -sampled -ab
// refuse -check and -trace: an A/B pair has no single machine to check, and
// two configurations would interleave in one trace.
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
// state cannot survive checkpoint seeding. -spectre -ab prints the LoopFrog
// side's candidate and confirmed leak counts after the speedup and exits 1
// on confirmed leaks (the A/B mitigation-cost study lives in lfbench
// -spectre).
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
// whose diagnostic snapshot is printed, -check divergence, and a machine
// panic, which the harness recovers and prints with its stack), 2 usage.
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
	"loopfrog/internal/serve"
	"loopfrog/internal/sim"
	"loopfrog/internal/telemetry"
	"loopfrog/internal/workloads"
)

// options are lfsim's parsed flags. The simulation flags fill spec, the
// lfservd job spec lfsim runs.
type options struct {
	spec                                           serve.JobSpec
	bench                                          string
	parallel                                       int
	tracePath, metricsPath, cpuprofile, memprofile string
	preflight, check                               bool
}

// parseArgs parses lfsim's command line into fs and checks it. A returned
// error is a usage error: the flag combination breaks lfservd's job-spec
// rules or one of lfsim's own (-check needs one detailed machine, -trace one
// configuration). It also returns the spec's machine configuration.
func parseArgs(fs *flag.FlagSet, args []string) (*options, cpu.Config, error) {
	o := &options{}
	fs.BoolVar(&o.spec.Baseline, "baseline", false, "treat hints as NOPs (sequential baseline)")
	fs.IntVar(&o.spec.Threadlets, "threadlets", 4, "threadlet contexts")
	fs.BoolVar(&o.spec.NoPack, "nopack", false, "disable iteration packing")
	fs.BoolVar(&o.spec.AB, "ab", false, "run baseline and LoopFrog, print the speedup")
	fs.StringVar(&o.bench, "bench", "", "run a named built-in benchmark instead of a file")
	fs.IntVar(&o.parallel, "parallel", 0, "simulation worker count (0 = all cores)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Perfetto/Chrome trace-event JSON file")
	fs.StringVar(&o.metricsPath, "metrics", "", "write a telemetry metrics JSON file")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.BoolVar(&o.preflight, "lint", false, "lint the program before simulating; refuse to run on errors")
	fs.StringVar(&o.spec.Faults, "faults", "", "fault-injection spec (e.g. \"all\" or \"conflict=0.05,kill\")")
	fs.Int64Var(&o.spec.Seed, "seed", 1, "fault-injection seed")
	fs.BoolVar(&o.check, "check", false, "verify the final state against the sequential reference")
	fs.BoolVar(&o.spec.Sampled, "sampled", false, "two-tier sampled estimate instead of a full detailed run")
	fs.BoolVar(&o.spec.Spectre, "spectre", false, "track speculative taint, print a JSON leak report, exit 1 on confirmed leaks")
	fs.BoolVar(&o.spec.Mitigate, "mitigate", false, "delay dependents of speculative loads until promotion (ShadowBinding-style)")
	fs.Uint64Var(&o.spec.SampleInterval, "interval", 0, "sampled checkpoint interval in instructions (0 = default)")
	fs.Uint64Var(&o.spec.SampleWindow, "window", 0, "sampled measured window in instructions (0 = default)")
	fs.Uint64Var(&o.spec.SampleWarmup, "warmup", 0, "sampled detailed warmup per window in instructions (0 = default)")
	if err := fs.Parse(args); err != nil {
		return nil, cpu.Config{}, err
	}
	if o.spec.Threadlets < 1 {
		return nil, cpu.Config{}, fmt.Errorf("-threadlets must be at least 1 (got %d)", o.spec.Threadlets)
	}
	if o.parallel < 0 {
		return nil, cpu.Config{}, fmt.Errorf("-parallel must be non-negative (got %d)", o.parallel)
	}
	if err := o.spec.ValidateSim(); err != nil {
		return nil, cpu.Config{}, err
	}
	if o.spec.AB && (o.check || o.tracePath != "") {
		return nil, cpu.Config{}, errors.New("-ab is incompatible with -check and -trace (no single machine to check, and two configurations would share one trace)")
	}
	if o.spec.Sampled && o.check {
		return nil, cpu.Config{}, errors.New("-sampled is incompatible with -check")
	}
	if o.bench == "" && fs.NArg() != 1 {
		return nil, cpu.Config{}, errors.New("need exactly one input (-bench name | file.ll | file.s)")
	}
	cfg, err := o.spec.MachineConfig()
	return o, cfg, err
}

func main() {
	// Usage errors exit 2, before any work happens.
	o, cfg, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	sim.SetParallelism(o.parallel)
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
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
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
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

	prog, diags, err := workloads.Load(o.bench, flag.Arg(0))
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, "lfsim: note:", d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsim:", err)
		os.Exit(1)
	}

	if o.preflight {
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

	if err := run(o, cfg, prog); err != nil {
		printRunError(err)
		os.Exit(1)
	}
}

// run executes the spec exactly as lfservd executes the same job, and
// prints its result. -trace attaches to the machines the harness builds: a
// detailed run's one machine (its first attempt's, when the harness retries
// a panic), or every detailed window of a sampled run, window i on trace pid
// i+1 (cache-satisfied windows leave no spans).
// -metrics, -check, the leak report and the injected-fault counts of a
// single detailed run read its machine after the run; -metrics of an A/B or
// sampled run gets the harness's registry.
func run(o *options, cfg cpu.Config, prog *asm.Program) error {
	spec := &o.spec
	var m *cpu.Machine
	x := serve.Exec{Prog: prog, Cfg: cfg, Observe: func(obs *cpu.Machine) { m = obs }}
	var finishTrace func() error
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		tr := telemetry.NewTrace(f)
		var finish func()
		if spec.Sampled {
			x.ObserveWindow, finish = telemetry.TraceSampledWindows(tr, 0)
		} else {
			var mt *telemetry.MachineTracer
			finish = func() {
				if mt != nil {
					mt.Finish()
				}
			}
			x.Observe = func(obs *cpu.Machine) {
				// A panic retry observes a fresh machine, which is left
				// untraced: the trace shows the attempt that panicked.
				if mt == nil {
					mt = telemetry.AttachMachine(obs, tr, 0)
				}
				m = obs
			}
		}
		finishTrace = func() error {
			finish()
			return tr.Close()
		}
	}
	out, err := serve.Execute(context.Background(), sim.DefaultHarness(), spec, x)
	if finishTrace != nil {
		if cerr := finishTrace(); cerr != nil && err == nil {
			return fmt.Errorf("trace: %w", cerr)
		}
	}
	if spec.AB || spec.Sampled {
		if err != nil {
			return err
		}
		return printJob(spec, out, o.metricsPath)
	}
	if o.metricsPath != "" && m != nil {
		reg := telemetry.NewRegistry()
		if err := telemetry.CollectMachine(reg, m); err != nil {
			return err
		}
		if err := writeRegistry(reg, o.metricsPath); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	printStats(out.Stats[0])
	if plan, _ := m.FaultInjector().(*fault.Plan); plan != nil {
		printInjected(plan)
	}
	if o.check {
		// Compare the ABI result register and all of memory: the hint
		// contract does not preserve dead body temporaries, so the full
		// register file is only comparable for normalising programs.
		div, err := fault.Check(m, prog, fault.CheckOpts{Regs: fault.ResultRegs()})
		if err != nil {
			return err
		}
		if div != "" {
			return fmt.Errorf("state diverged from sequential reference: %s", div)
		}
		fmt.Println("check: final state matches the sequential reference (x10 + memory)")
	}
	if spec.Spectre {
		rep := m.LeakReport()
		out := struct {
			Program   string `json:"program"`
			Mitigated bool   `json:"mitigated"`
			cpu.LeakReport
		}{Program: prog.Name, Mitigated: spec.Mitigate, LeakReport: rep}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		if rep.Confirmed > 0 {
			return fmt.Errorf("%d speculative leak(s) confirmed at %d site(s)", rep.Confirmed, len(rep.Sites))
		}
	}
	return nil
}

// printJob prints an A/B or sampled job's result; -metrics gets the
// harness's registry.
func printJob(spec *serve.JobSpec, out *serve.Outcome, metricsPath string) error {
	r := out.Result
	if spec.AB {
		est, note := "", ""
		var baseIPC float64
		if spec.Sampled {
			est, note, baseIPC = " (est)", " (phase-weighted estimate)", out.Sampled[0].IPC()
		} else {
			baseIPC = out.Stats[0].IPC()
		}
		fmt.Printf("baseline: %8d cycles%s  IPC %.2f\n", r.BaselineCycles, est, baseIPC)
		fmt.Printf("loopfrog: %8d cycles%s  IPC %.2f\n", r.LoopFrogCycles, est, r.IPC)
		fmt.Printf("speedup:  %.3fx%s\n", r.Speedup, note)
	} else {
		fmt.Printf("cycles            %d (sampled estimate)\n", r.Cycles)
		fmt.Printf("instructions      %d (IPC %.2f)\n", r.ArchInsts, r.IPC)
	}
	if spec.Sampled {
		st := out.Sampled[len(out.Sampled)-1]
		fmt.Printf("sampled           %d windows (interval %d, window %d, warmup %d), detailed share %.0f%%\n",
			len(st.Windows), st.Sample.Interval, st.Sample.Window, st.Sample.Warmup, 100*st.DetailedShare)
		fmt.Printf("throughput        tier-1 %.1fM insts/s, effective %.1fM insts/s\n",
			st.Tier1IPS/1e6, st.EffectiveIPS/1e6)
	}
	if metricsPath != "" {
		reg := telemetry.NewRegistry()
		if err := telemetry.CollectHarness(reg, sim.DefaultHarness()); err != nil {
			return err
		}
		if err := writeRegistry(reg, metricsPath); err != nil {
			return err
		}
	}
	if spec.Spectre {
		fmt.Printf("leaks:    %d candidates, %d confirmed (loopfrog)\n", r.LeakCandidates, r.Leaks)
		if r.Leaks > 0 {
			return fmt.Errorf("%d speculative leak(s) confirmed", r.Leaks)
		}
	}
	return nil
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
