// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from the simulator: each exported function runs the
// necessary simulations and returns printable rows. cmd/lfbench and the
// repository benchmarks drive these.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"loopfrog/internal/area"
	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

// Figure1Row is one microarchitecture width point of figure 1.
type Figure1Row struct {
	Width      int
	GeomeanIPC float64
	CommitUtil float64 // fraction of commit bandwidth used
}

// Figure1 sweeps the baseline front-end width over the suite, reproducing
// the trend of figure 1: IPC grows with width while the fraction of commit
// bandwidth used falls — the under-utilisation LoopFrog exploits. The whole
// width x benchmark grid is fanned out as one batch of jobs.
func Figure1(suite []*workloads.Benchmark, widths []int) ([]Figure1Row, error) {
	jobs := make([]sim.Job, 0, len(widths)*len(suite))
	for _, w := range widths {
		cfg := sim.BaselineOf(cpu.DefaultConfig().WithWidth(w))
		for _, b := range suite {
			prog, err := b.Program()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, sim.Job{Cfg: cfg, Prog: prog})
		}
	}
	stats, err := sim.RunJobs(jobs)
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}
	var rows []Figure1Row
	for wi, w := range widths {
		var ipcs, utils []float64
		for bi := range suite {
			st := stats[wi*len(suite)+bi]
			ipcs = append(ipcs, st.IPC())
			utils = append(utils, st.CommitUtilization(w))
		}
		rows = append(rows, Figure1Row{Width: w, GeomeanIPC: sim.Geomean(ipcs), CommitUtil: sim.Geomean(utils)})
	}
	return rows, nil
}

// FormatFigure1 renders figure 1 rows.
func FormatFigure1(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1: geomean IPC and commit utilisation vs front-end width (baseline)\n")
	b.WriteString("width  geomean-IPC  commit-utilisation\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d  %11.2f  %17.1f%%\n", r.Width, r.GeomeanIPC, 100*r.CommitUtil)
	}
	return b.String()
}

// Figure6Row is one benchmark's whole-program speedup.
type Figure6Row struct {
	Name          string
	Suite         string
	WholeSpeedup  float64
	RegionSpeedup float64
}

// Figure6 runs both SPEC suites and reports whole-program speedups.
func Figure6(cfg cpu.Config, suites ...[]*workloads.Benchmark) ([]Figure6Row, map[string]float64, error) {
	var rows []Figure6Row
	geomeans := make(map[string]float64)
	for _, suite := range suites {
		results, err := sim.RunSuite(cfg, suite)
		if err != nil {
			return nil, nil, err
		}
		var sp []float64
		for _, r := range results {
			rows = append(rows, Figure6Row{
				Name:          r.Bench.Name,
				Suite:         r.Bench.Suite,
				WholeSpeedup:  r.Speedup(),
				RegionSpeedup: r.RegionSpeedup(),
			})
			sp = append(sp, r.Speedup())
		}
		if len(results) > 0 {
			geomeans[results[0].Bench.Suite] = sim.Geomean(sp)
		}
	}
	return rows, geomeans, nil
}

// FormatFigure6 renders figure 6 rows.
func FormatFigure6(rows []Figure6Row, geomeans map[string]float64) string {
	var b strings.Builder
	b.WriteString("Figure 6: whole-program speedups (baseline vs LoopFrog)\n")
	b.WriteString("benchmark      suite    whole-speedup  region-speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-8s %12.1f%%  %13.1f%%\n",
			r.Name, r.Suite, 100*(r.WholeSpeedup-1), 100*(r.RegionSpeedup-1))
	}
	var suites []string
	for s := range geomeans {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	for _, s := range suites {
		fmt.Fprintf(&b, "geomean %-8s %+.1f%%\n", s, 100*(geomeans[s]-1))
	}
	return b.String()
}

// Figure7Row is one benchmark's threadlet-occupancy profile.
type Figure7Row struct {
	Name string
	// FracGE2 and FracEq4 are the whole-run time fractions with at least two
	// and exactly four live threadlets.
	FracGE2, FracEq4 float64
}

// Figure7 reports threadlet utilisation over the lifetime of each profitable
// benchmark (in-region occupancy diluted by the region's share of program
// time, as the paper's whole-run traces are).
func Figure7(results []*sim.Result, onlyProfitable bool) []Figure7Row {
	profitable := workloads.Profitable2017Names()
	var rows []Figure7Row
	for _, r := range results {
		if onlyProfitable && !profitable[r.Bench.Name] {
			continue
		}
		lf := r.LF
		var ge2, eq4 uint64
		var total uint64
		for k, c := range lf.LiveCycles {
			total += c
			if k+1 >= 2 {
				ge2 += c
			}
			if k+1 == 4 {
				eq4 += c
			}
		}
		if total == 0 {
			continue
		}
		share := r.LFTimeShare()
		rows = append(rows, Figure7Row{
			Name:    r.Bench.Name,
			FracGE2: share * float64(ge2) / float64(total),
			FracEq4: share * float64(eq4) / float64(total),
		})
	}
	return rows
}

// FormatFigure7 renders figure 7 rows with their averages.
func FormatFigure7(rows []Figure7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: speculative threadlet utilisation over benchmark lifetime\n")
	b.WriteString("benchmark      >=2 active  4 active\n")
	var s2, s4 float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9.0f%%  %7.0f%%\n", r.Name, 100*r.FracGE2, 100*r.FracEq4)
		s2 += r.FracGE2
		s4 += r.FracEq4
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "average        %9.0f%%  %7.0f%%\n",
			100*s2/float64(len(rows)), 100*s4/float64(len(rows)))
	}
	return b.String()
}

// Figure8Row is one benchmark's commit attribution, normalised to the
// baseline IPC.
type Figure8Row struct {
	Name string
	// Arch is IPC committed while architectural; SpecOK while speculative
	// and later retired; SpecFail to threadlets that were squashed. All are
	// normalised to the baseline IPC and diluted to whole-program time.
	Arch, SpecOK, SpecFail float64
}

// Figure8 reproduces the committed-IPC attribution of figure 8.
func Figure8(results []*sim.Result, onlyProfitable bool) []Figure8Row {
	profitable := workloads.Profitable2017Names()
	var rows []Figure8Row
	for _, r := range results {
		if onlyProfitable && !profitable[r.Bench.Name] {
			continue
		}
		baseIPC := r.Base.IPC()
		if baseIPC == 0 || r.LF.Cycles == 0 {
			continue
		}
		share := r.LFTimeShare()
		norm := func(insts uint64) float64 {
			inRegion := float64(insts) / float64(r.LF.Cycles) / baseIPC
			return share*inRegion + (1 - share) // sequential part runs at baseline speed
		}
		archOnly := share*(float64(r.LF.ArchCommitCycleSum)/float64(r.LF.Cycles))/baseIPC + (1 - share)
		rows = append(rows, Figure8Row{
			Name:     r.Bench.Name,
			Arch:     archOnly,
			SpecOK:   norm(r.LF.ArchCommitCycleSum+r.LF.SpecCommitCycleSum) - archOnly,
			SpecFail: share * (float64(r.LF.SpecCommitted) / float64(r.LF.Cycles)) / baseIPC,
		})
	}
	return rows
}

// FormatFigure8 renders figure 8 rows.
func FormatFigure8(rows []Figure8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: committed IPC attribution, normalised to baseline IPC\n")
	b.WriteString("benchmark      architectural  +speculative(retired)  +failed-spec\n")
	var a, s, f float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.2f  %20.2f  %12.2f\n", r.Name, r.Arch, r.SpecOK, r.SpecFail)
		a += r.Arch
		s += r.SpecOK
		f += r.SpecFail
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "average        %12.2f  %20.2f  %12.2f\n", a/n, s/n, f/n)
	}
	return b.String()
}

// Table2Row aggregates the sources of performance gains.
type Table2Row struct {
	Category    string
	SubCategory workloads.Class
	Loops       int
	Fraction    float64
}

// Table2 attributes each profitable benchmark's gain to its dominant
// bottleneck class (the paper sorts profitable loops into the same five
// sub-categories and attributes all of a loop's speedup to its main cause).
func Table2(results []*sim.Result) []Table2Row {
	gain := make(map[workloads.Class]float64)
	loops := make(map[workloads.Class]int)
	total := 0.0
	for _, r := range results {
		g := r.Speedup() - 1
		if g < 0.01 {
			continue // the paper restricts attribution to >=1% loops
		}
		gain[r.Bench.Class] += g
		loops[r.Bench.Class]++
		total += g
	}
	order := []workloads.Class{
		workloads.ClassMemory, workloads.ClassControl, workloads.ClassDepChain,
		workloads.ClassBranchPref, workloads.ClassDataPref,
	}
	var rows []Table2Row
	for _, c := range order {
		cat := "Prefetching"
		if c.IsTrueParallelism() {
			cat = "True parallelism"
		}
		frac := 0.0
		if total > 0 {
			frac = gain[c] / total
		}
		rows = append(rows, Table2Row{Category: cat, SubCategory: c, Loops: loops[c], Fraction: frac})
	}
	return rows
}

// FormatTable2 renders table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: sources of performance gains\n")
	b.WriteString("category          sub-category               loops  fraction-of-speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-17s %-26s %5d  %18.0f%%\n", r.Category, r.SubCategory, r.Loops, 100*r.Fraction)
	}
	return b.String()
}

// PackingResult summarises §6.5.
type PackingResult struct {
	GeomeanWith, GeomeanWithout float64
	MeanFactor, MaxFactor       float64
}

// Packing compares the suite geomean with and without iteration packing and
// reports the observed packing factors, read from the packing predictors of
// the LoopFrog batch's own machines.
func Packing(suite []*workloads.Benchmark) (*PackingResult, error) {
	on := cpu.DefaultConfig()
	off := cpu.DefaultConfig()
	off.Pack.Enabled = false
	resOff, err := sim.RunSuite(off, suite)
	if err != nil {
		return nil, err
	}
	// The baseline core has packing off either way (sim.BaselineOf), so the
	// pack-off runs' baselines serve both sides. The LoopFrog batch runs on
	// a harness with no run-cache, so every machine is built and observed.
	packers := make([]*core.PackPredictor, len(suite))
	jobs := make([]sim.Job, len(suite))
	for i, b := range suite {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		jobs[i] = sim.Job{Cfg: on, Prog: prog, Observe: func(m *cpu.Machine) { packers[i] = m.Packer() }}
	}
	lf, err := (&sim.Harness{Workers: sim.DefaultHarness().Workers}).RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	resOn := make([]*sim.Result, len(suite))
	for i, r := range resOff {
		if lf[i].ArchInsts != r.Base.ArchInsts {
			return nil, fmt.Errorf("packing: %s: baseline committed %d insts but LoopFrog %d",
				r.Bench.Name, r.Base.ArchInsts, lf[i].ArchInsts)
		}
		resOn[i] = &sim.Result{Bench: r.Bench, Base: r.Base, LF: lf[i]}
	}
	out := &PackingResult{
		GeomeanWith:    geomeanWhole(resOn),
		GeomeanWithout: geomeanWhole(resOff),
	}
	var totalPacked, factorSum uint64
	maxF := 0
	for _, p := range packers {
		totalPacked += p.Packed
		factorSum += p.FactorSum
		maxF = max(maxF, p.MaxFactorSeen)
	}
	if totalPacked > 0 {
		out.MeanFactor = float64(factorSum) / float64(totalPacked)
	}
	out.MaxFactor = float64(maxF)
	return out, nil
}

func geomeanWhole(results []*sim.Result) float64 {
	var xs []float64
	for _, r := range results {
		xs = append(xs, r.Speedup())
	}
	return sim.Geomean(xs)
}

// FormatPacking renders the §6.5 summary.
func FormatPacking(p *PackingResult) string {
	return fmt.Sprintf(`Iteration packing (§6.5)
geomean speedup with packing:    %+.1f%%
geomean speedup without packing: %+.1f%%
packing contribution:            %+.1f pp
mean packing factor:             %.1fx
max packing factor:              %.0fx
`,
		100*(p.GeomeanWith-1), 100*(p.GeomeanWithout-1),
		100*(p.GeomeanWith-p.GeomeanWithout), p.MeanFactor, p.MaxFactor)
}

// SweepRow is one point of a sensitivity sweep.
type SweepRow struct {
	Label   string
	Geomean float64
}

// Figure9 sweeps the total SSB size (all slices together, as the paper
// labels it; the headline is 8 KiB = 4 x 2 KiB).
func Figure9(suite []*workloads.Benchmark, totalBytes []int) ([]SweepRow, error) {
	var rows []SweepRow
	for _, total := range totalBytes {
		cfg := cpu.DefaultConfig()
		cfg.SSB.SliceBytes = total / cfg.Threadlets
		res, err := sim.RunSuite(cfg, suite)
		if err != nil {
			return nil, fmt.Errorf("figure9 %d: %w", total, err)
		}
		rows = append(rows, SweepRow{Label: formatBytes(total), Geomean: geomeanWhole(res)})
	}
	return rows, nil
}

// Figure10 sweeps the SSB/conflict-detector granule size.
func Figure10(suite []*workloads.Benchmark, granules []int) ([]SweepRow, error) {
	var rows []SweepRow
	for _, g := range granules {
		cfg := cpu.DefaultConfig()
		cfg.SSB.GranuleBytes = g
		res, err := sim.RunSuite(cfg, suite)
		if err != nil {
			return nil, fmt.Errorf("figure10 %d: %w", g, err)
		}
		rows = append(rows, SweepRow{Label: fmt.Sprintf("%dB", g), Geomean: geomeanWhole(res)})
	}
	return rows, nil
}

// Associativity reproduces the §6.6 associativity study: limited SSB
// associativity with and without a small shared victim buffer.
func Associativity(suite []*workloads.Benchmark) ([]SweepRow, error) {
	type pt struct {
		label  string
		assoc  int
		victim int
	}
	points := []pt{
		{"full", 0, 0},
		{"8-way", 8, 0},
		{"4-way", 4, 0},
		{"8-way+victim", 8, 8},
		{"4-way+victim", 4, 8},
	}
	var rows []SweepRow
	for _, p := range points {
		cfg := cpu.DefaultConfig()
		cfg.SSB.Assoc = p.assoc
		cfg.SSB.VictimEntries = p.victim
		res, err := sim.RunSuite(cfg, suite)
		if err != nil {
			return nil, fmt.Errorf("assoc %s: %w", p.label, err)
		}
		rows = append(rows, SweepRow{Label: p.label, Geomean: geomeanWhole(res)})
	}
	return rows, nil
}

// FormatSweep renders a sensitivity sweep.
func FormatSweep(title string, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s geomean %+.1f%%\n", r.Label, 100*(r.Geomean-1))
	}
	return b.String()
}

// Generality reproduces §6.7: the geomean over loops that are NOT inside an
// OpenMP-parallel region of the original program.
func Generality(results []*sim.Result) (all, nonOMP float64) {
	var xa, xn []float64
	for _, r := range results {
		xa = append(xa, r.Speedup())
		if !r.Bench.InOpenMPRegion {
			xn = append(xn, r.Speedup())
		}
	}
	return sim.Geomean(xa), sim.Geomean(xn)
}

// AreaReport reproduces §6.8's overhead arithmetic.
func AreaReport() string {
	return area.Report(cpu.DefaultConfig().SSB)
}

// Table3 renders the scheme-comparison table. The LoopFrog row is measured;
// the prior-scheme rows are the paper's cited numbers (their artifacts are
// unavailable), as in the paper's own caveat that the comparison is not
// like-for-like.
func Table3(measured2017 float64) string {
	var b strings.Builder
	b.WriteString("Table 3: comparison with TLS/SpMT schemes (prior rows cited, not measured)\n")
	fmt.Fprintf(&b, "%-12s %-22s %-8s %-8s %-28s %s\n", "scheme", "speedup", "cores", "area", "baseline", "task sizes")
	fmt.Fprintf(&b, "%-12s %-22s %-8s %-8s %-28s %s\n", "LoopFrog",
		fmt.Sprintf("%.2fx (this repro)", measured2017), "1 (4SMT)", "~1.15x", "8-issue OoO", "~100-10,000 insts")
	fmt.Fprintf(&b, "%-12s %-22s %-8s %-8s %-28s %s\n", "STAMPede", "1.16x (SPEC95/2000)", "4", ">4x", "4-issue simple OoO", "~1,400 insts")
	fmt.Fprintf(&b, "%-12s %-22s %-8s %-8s %-28s %s\n", "Multiscalar", "2.16x (SPEC92)", "8 PUs", "~8x", "2-issue limited OoO", "10-50 insts")
	return b.String()
}

func formatBytes(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKiB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
