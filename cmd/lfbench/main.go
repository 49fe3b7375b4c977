// Command lfbench regenerates the paper's tables and figures (§6) on the
// simulator. With no flags it runs everything; individual experiments can be
// selected.
//
// Usage:
//
//	lfbench [-fig 1|6|7|8|9|10] [-table 1|2|3] [-packing] [-assoc]
//	        [-generality] [-area] [-quick] [-parallel N] [-metrics file]
//	        [-chaos] [-seed N] [-sampled] [-sampledjson file]
//	        [-spectre] [-spectrejson file]
//	        [-cpuprofile file] [-memprofile file]
//
// Simulations are fanned out over all CPU cores by default; -parallel caps
// the worker count. -metrics writes the harness's scheduling and run-cache
// telemetry (per-job wall time, worker utilisation, cache hit/miss counters)
// as JSON after all experiments complete.
//
// -chaos runs the robustness matrix instead of the paper experiments: every
// fault-injection kind (and their combination) across the chaos workload
// suite at three seeds starting from -seed, each run differentially checked
// against the sequential reference. Any failing cell exits 1.
//
// -spectre runs the speculative-leak study instead of the paper experiments:
// every workload of the suite (-quick for the subset) plus the seeded
// security controls, each measured as a baseline / taint-detection /
// mitigation triple. The table reports each workload's leak profile and the
// cycle cost of the ShadowBinding-style DelaySpeculativeLoadDeps defence;
// any mitigated run that still produces a leak candidate exits 1.
// -spectrejson writes the rows as BENCH_spectre.json. Incompatible with
// -sampled: taint state cannot survive checkpoint seeding.
//
// -sampled runs the two-tier sampled-simulation accuracy study instead of
// the paper experiments: every workload of the suite (-quick for the subset)
// is run in full detail as ground truth and then estimated by sampled
// simulation at the default full-tiling configuration; any cycle error over
// 2% (5% for the documented outliers) exits 1. -sampledjson additionally
// sweeps the accuracy-vs-speedup curve across sampling configurations and
// writes the result (BENCH_sampled.json schema) to the given file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"loopfrog/internal/cpu"
	"loopfrog/internal/experiments"
	"loopfrog/internal/sim"
	"loopfrog/internal/telemetry"
	"loopfrog/internal/workloads"
)

func main() {
	fig := flag.Int("fig", 0, "run one figure (1, 6, 7, 8, 9, 10)")
	table := flag.Int("table", 0, "run one table (1, 2, 3)")
	packing := flag.Bool("packing", false, "run the §6.5 packing study")
	assoc := flag.Bool("assoc", false, "run the §6.6 associativity study")
	generality := flag.Bool("generality", false, "run the §6.7 generality study")
	areaFlag := flag.Bool("area", false, "print the §6.8 overhead report")
	quick := flag.Bool("quick", false, "use a reduced benchmark subset for sweeps")
	chaos := flag.Bool("chaos", false, "run the fault-injection chaos matrix and exit")
	seed := flag.Int64("seed", 1, "first chaos matrix seed")
	sampled := flag.Bool("sampled", false, "run the sampled-simulation accuracy study and exit")
	sampledJSON := flag.String("sampledjson", "", "with the accuracy study, sweep the accuracy-vs-speedup curve and write BENCH_sampled.json here")
	spectre := flag.Bool("spectre", false, "run the speculative-leak mitigation-cost study and exit")
	spectreJSON := flag.String("spectrejson", "", "with the leak study, write BENCH_spectre.json here")
	fabricFlag := flag.Bool("fabric", false, "run the distributed-sweep throughput study (3 in-process nodes vs 1) and exit")
	fabricJSON := flag.String("fabricjson", "BENCH_fabric.json", "with the fabric study, write the comparison here")
	tuneFlag := flag.Bool("tune", false, "run the autotuned-vs-static hint-selection study and exit")
	tuneJSON := flag.String("tunejson", "BENCH_tune.json", "with the tune study, write the table here")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = all cores)")
	metricsPath := flag.String("metrics", "", "write harness telemetry JSON to this file on exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if (*spectre || *spectreJSON != "") && (*sampled || *sampledJSON != "") {
		fmt.Fprintln(os.Stderr, "lfbench: -spectre is incompatible with -sampled: taint state cannot survive checkpoint seeding")
		flag.Usage()
		os.Exit(2)
	}

	sim.SetParallelism(*parallel)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lfbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lfbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lfbench:", err)
			}
		}()
	}

	if *chaos {
		if !runChaos(*seed) {
			os.Exit(1)
		}
		return
	}

	if *fabricFlag {
		if !runFabric(*fabricJSON, 8, 3) {
			os.Exit(1)
		}
		return
	}

	if *tuneFlag {
		if !runTuneStudy(*tuneJSON, *quick) {
			os.Exit(1)
		}
		return
	}

	all := *fig == 0 && *table == 0 && !*packing && !*assoc && !*generality && !*areaFlag
	suite17 := workloads.CPU2017()
	suite06 := workloads.CPU2006()
	sweepSuite := suite17
	if *quick {
		sweepSuite = quickSubset(suite17)
	}

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		os.Exit(1)
	}

	if *sampled || *sampledJSON != "" {
		if !runSampled(sweepSuite, *sampledJSON) {
			os.Exit(1)
		}
		return
	}

	if *spectre || *spectreJSON != "" {
		// The seeded security suite rides along so the study always shows a
		// positive (leaky) and a negative (hardened) control next to the
		// stock workloads.
		if !runSpectre(append(append([]*workloads.Benchmark{}, sweepSuite...), workloads.Security()...), *spectreJSON) {
			os.Exit(1)
		}
		return
	}

	var results17 []*sim.Result
	need17 := all || *fig == 6 || *fig == 7 || *fig == 8 || *table == 2 || *table == 3 || *generality
	if need17 {
		var err error
		results17, err = sim.RunSuite(cpu.DefaultConfig(), suite17)
		if err != nil {
			die(err)
		}
	}

	if all || *table == 1 {
		printTable1()
	}
	if all || *fig == 1 {
		rows, err := experiments.Figure1(sweepSuite, []int{4, 6, 8, 10})
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatFigure1(rows))
	}
	if all || *fig == 6 {
		rows, geo, err := experiments.Figure6(cpu.DefaultConfig(), suite17, suite06)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatFigure6(rows, geo))
	}
	if all || *fig == 7 {
		fmt.Println(experiments.FormatFigure7(experiments.Figure7(results17, true)))
	}
	if all || *fig == 8 {
		fmt.Println(experiments.FormatFigure8(experiments.Figure8(results17, true)))
	}
	if all || *table == 2 {
		fmt.Println(experiments.FormatTable2(experiments.Table2(results17)))
	}
	if all || *packing {
		p, err := experiments.Packing(sweepSuite)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatPacking(p))
	}
	if all || *fig == 9 {
		rows, err := experiments.Figure9(sweepSuite, []int{512, 2 << 10, 8 << 10, 32 << 10})
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSweep("Figure 9: sensitivity to SSB size (default 8KiB total)", rows))
	}
	if all || *fig == 10 {
		rows, err := experiments.Figure10(sweepSuite, []int{1, 2, 4, 8, 16, 32})
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSweep("Figure 10: sensitivity to granule size (default 4B)", rows))
	}
	if all || *assoc {
		rows, err := experiments.Associativity(sweepSuite)
		if err != nil {
			die(err)
		}
		fmt.Println(experiments.FormatSweep("SSB associativity study (§6.6)", rows))
	}
	if all || *generality {
		allGeo, nonOMP := experiments.Generality(results17)
		fmt.Printf("Generality (§6.7)\nall loops geomean:            %+.1f%%\nnon-OpenMP-region loops only: %+.1f%%\n\n",
			100*(allGeo-1), 100*(nonOMP-1))
	}
	if all || *areaFlag {
		fmt.Println(experiments.AreaReport())
	}
	if all || *table == 3 {
		var xs []float64
		for _, r := range results17 {
			xs = append(xs, r.Speedup())
		}
		fmt.Println(experiments.Table3(sim.Geomean(xs)))
	}

	if *metricsPath != "" {
		reg := telemetry.NewRegistry()
		if err := telemetry.CollectHarness(reg, sim.DefaultHarness()); err != nil {
			die(err)
		}
		f, err := os.Create(*metricsPath)
		if err != nil {
			die(err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
	}
}

// runSampled runs the sampled-simulation accuracy study over suite: full
// detailed runs as ground truth, sampled estimates at the default full-tiling
// configuration (plus the whole accuracy-vs-speedup curve when jsonPath is
// set), gated on the documented error budgets. Returns false on any breach.
func runSampled(suite []*workloads.Benchmark, jsonPath string) bool {
	configs := []sim.SampleConfig{sim.DefaultSampleConfig()}
	if jsonPath != "" {
		configs = experiments.SampledCurveConfigs()
	}
	points, err := experiments.Sampled(suite, configs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		return false
	}
	fmt.Print(experiments.FormatSampled(points))
	if jsonPath != "" {
		var names []string
		for _, b := range suite {
			names = append(names, b.Name)
		}
		var outliers []string
		for name := range sim.SampledOutliers {
			outliers = append(outliers, name)
		}
		sort.Strings(outliers)
		// The BENCH_sampled.json schema.
		rep := struct {
			Description string                     `json:"description"`
			Meta        experiments.Meta           `json:"meta"`
			Workloads   []string                   `json:"workloads"`
			Budgets     map[string]float64         `json:"budgets_pct"`
			Outliers    []string                   `json:"outliers"`
			Curve       []experiments.SampledPoint `json:"curve"`
		}{
			Description: "Two-tier sampled simulation: accuracy-vs-speedup curve. Each point estimates every workload's baseline and LoopFrog cycle count from fast-functional tier-1 warming plus detailed windows, compared against full detailed runs. sim_speedup is full-pair wall time over sampled-pair wall time on this host; windows fan out over the worker pool, so multi-core hosts scale it by the core count.",
			Meta:        experiments.NewMeta("lfbench -sampled -sampledjson BENCH_sampled.json"),
			Workloads:   names,
			Budgets:     map[string]float64{"default": 100 * sim.SampledErrBudget, "outlier": 100 * sim.SampledOutlierBudget},
			Outliers:    outliers,
			Curve:       points,
		}
		if !writeBench(jsonPath, rep) {
			return false
		}
	}
	return gate("sampled accuracy gate", experiments.SampledFailures(points))
}

// runTuneStudy runs the autotuned-vs-static study: the hint autotuner over
// the study suite, every winner gated against the static selection. Returns
// false on any gate breach.
func runTuneStudy(jsonPath string, quick bool) bool {
	suite := experiments.TuneSuite()
	if quick && len(suite) > 3 {
		suite = suite[:3]
	}
	rows, err := experiments.TuneStudy(suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		return false
	}
	fmt.Print(experiments.FormatTune(rows))
	if jsonPath != "" {
		// The BENCH_tune.json schema.
		rep := struct {
			Description string                `json:"description"`
			Meta        experiments.Meta      `json:"meta"`
			BeatsStatic int                   `json:"beats_static"`
			Workloads   []experiments.TuneRow `json:"workloads"`
		}{
			Description: "Hint autotuning: per workload, the search's winning variant against the compiler's static hint selection. Every variant that survives pruning and dedup is measured once with a full detailed run; scores are speedups over the shared hints-as-NOPs baseline; evaluations counts those detailed runs, baseline included; beats_static counts workloads whose winner strictly improves on the static selection.",
			Meta:        experiments.NewMeta("lfbench -tune -tunejson BENCH_tune.json"),
			BeatsStatic: experiments.TuneBeats(rows),
			Workloads:   rows,
		}
		if !writeBench(jsonPath, rep) {
			return false
		}
	}
	return gate("autotuning gate", experiments.TuneFailures(rows))
}

// runSpectre runs the speculative-leak mitigation-cost study over suite:
// every workload's baseline / detection / mitigation triple, the leak profile
// of each, gated on the mitigated runs being leak-free. Returns false on any
// gate breach.
func runSpectre(suite []*workloads.Benchmark, jsonPath string) bool {
	rows, err := experiments.Spectre(suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		return false
	}
	fmt.Print(experiments.FormatSpectre(rows))
	if jsonPath != "" {
		// The BENCH_spectre.json schema.
		rep := struct {
			Description string                   `json:"description"`
			Meta        experiments.Meta         `json:"meta"`
			Rows        []experiments.SpectreRow `json:"rows"`
		}{
			Description: "Speculative-leak study: per-workload taint-detection leak profile (candidates = transient loads whose taint-derived address reached the cache; leaks = candidates confirmed by a squash) and the cycle cost of the ShadowBinding-style DelaySpeculativeLoadDeps mitigation, which holds dependents of speculative loads until promotion. Detection is metadata-only, so detect_cycles equals the stock LoopFrog cycle count; cost_pct is the mitigation's price against it.",
			Meta:        experiments.NewMeta("lfbench -spectre -spectrejson BENCH_spectre.json"),
			Rows:        rows,
		}
		if !writeBench(jsonPath, rep) {
			return false
		}
	}
	return gate("spectre mitigation gate", experiments.SpectreFailures(rows))
}

// writeBench writes one BENCH_*.json artifact as indented JSON and prints
// its path; a failure is printed and reported as false.
func writeBench(path string, rep any) bool {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		return false
	}
	fmt.Println("wrote", path)
	return true
}

// gate prints a study's gate failures, or its PASS line when there are
// none, and reports whether it passed.
func gate(name string, fails []string) bool {
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "lfbench: FAIL:", f)
	}
	if len(fails) == 0 {
		fmt.Println(name + ": PASS")
	}
	return len(fails) == 0
}

// runChaos sweeps the seeded fault matrix: every safe fault kind and their
// combination across the chaos workload suite, three seeds each, every run
// compared against the sequential reference. It prints one line per cell and
// reports whether all cells passed.
func runChaos(seed int64) bool {
	specs := []string{"conflict", "overflow", "kill", "poison", "mispredict", "all"}
	seeds := []int64{seed, seed + 1, seed + 2}
	cells, err := experiments.Chaos(cpu.DefaultConfig(), workloads.ChaosSuite(), specs, seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		return false
	}
	fmt.Printf("Chaos matrix: %d workloads x %d specs x %d seeds\n",
		len(workloads.ChaosSuite()), len(specs), len(seeds))
	table, failed := experiments.FormatChaos(cells)
	fmt.Print(table)
	return failed == 0
}

func quickSubset(suite []*workloads.Benchmark) []*workloads.Benchmark {
	keep := map[string]bool{"mcf": true, "omnetpp": true, "x264": true, "leela": true, "imagick": true, "gcc": true}
	var out []*workloads.Benchmark
	for _, b := range suite {
		if keep[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

func printTable1() {
	cfg := cpu.DefaultConfig()
	fmt.Printf(`Table 1: simulation parameters
pipeline        %d-wide, %d threadlet contexts, front-end depth %d
windows         ROB %d, IQ %d, LQ %d, SQ %d (dynamically shared)
registers       %d int + %d fp physical
FUs             %d ALU pipes (%d branch-capable), %d mul/div, %d FP (%d div/sqrt), %d load, %d store
branch pred     TAGE %d tables + loop predictor, %d-entry BTB, %d-entry RAS
SSB             %d slices x %d B, %d B lines, %d B granules, read %d cyc / write %d cyc
conflict check  %d-cycle latency, exact sets (idealised Bloom filter)
L1I/L1D         %d KiB / %d KiB, L2 %d MiB, DRAM %d cycles
packing         target %d insts, max factor %d

`,
		cfg.Width, cfg.Threadlets, cfg.FrontendDepth,
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize,
		cfg.IntRegs, cfg.FPRegs,
		cfg.ALUs, cfg.Branches, cfg.MulDivs, cfg.FPs, cfg.FPDivs, cfg.LoadPipes, cfg.StorePipes,
		len(cfg.BPred.Histories), cfg.BPred.BTBEntries, cfg.BPred.RASEntries,
		cfg.Threadlets, cfg.SSB.SliceBytes, cfg.SSB.LineBytes, cfg.SSB.GranuleBytes,
		cfg.SSB.ReadLatency, cfg.SSB.WriteLatency,
		cfg.ConflictCheckLatency,
		cfg.Hier.L1I.SizeBytes>>10, cfg.Hier.L1D.SizeBytes>>10, cfg.Hier.L2.SizeBytes>>20, cfg.Hier.DRAMLatency,
		cfg.Pack.TargetSize, cfg.Pack.MaxFactor)
}
