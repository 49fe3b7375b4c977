package experiments

import (
	"errors"
	"strings"
	"testing"

	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

// subset keeps experiment tests fast while covering the gain classes.
func subset(t *testing.T) []*workloads.Benchmark {
	t.Helper()
	keep := map[string]bool{"mcf": true, "omnetpp": true, "leela": true, "imagick": true, "gcc": true}
	var out []*workloads.Benchmark
	for _, b := range workloads.CPU2017() {
		if keep[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

func results(t *testing.T) []*sim.Result {
	t.Helper()
	res, err := sim.RunSuite(cpu.DefaultConfig(), subset(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure1Trend(t *testing.T) {
	rows, err := Figure1(subset(t), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The paper's trend: wider cores raise IPC but lower commit utilisation.
	if rows[1].GeomeanIPC <= rows[0].GeomeanIPC {
		t.Errorf("IPC did not grow with width: %.2f -> %.2f", rows[0].GeomeanIPC, rows[1].GeomeanIPC)
	}
	if rows[1].CommitUtil >= rows[0].CommitUtil {
		t.Errorf("commit utilisation did not fall with width: %.2f -> %.2f",
			rows[0].CommitUtil, rows[1].CommitUtil)
	}
	out := FormatFigure1(rows)
	if !strings.Contains(out, "width") {
		t.Error("format output missing header")
	}
}

func TestFigure6ShapesMatchPaper(t *testing.T) {
	rows, geo, err := Figure6(cpu.DefaultConfig(), subset(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure6Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Shape checks against the paper: imagick is the top gainer; leela shows
	// little or nothing; the subset geomean is positive.
	if byName["imagick"].WholeSpeedup < 1.5 {
		t.Errorf("imagick = %.2f, want the top gainer (paper: 1.87)", byName["imagick"].WholeSpeedup)
	}
	if s := byName["leela"].WholeSpeedup; s < 0.95 || s > 1.05 {
		t.Errorf("leela = %.2f, want ~1.0 (paper: no speedup)", s)
	}
	if byName["omnetpp"].WholeSpeedup < 1.2 {
		t.Errorf("omnetpp = %.2f, want a large gain (paper: 1.54)", byName["omnetpp"].WholeSpeedup)
	}
	if geo["cpu2017"] <= 1.0 {
		t.Errorf("subset geomean = %.3f, want > 1", geo["cpu2017"])
	}
	if !strings.Contains(FormatFigure6(rows, geo), "geomean") {
		t.Error("format output missing geomean")
	}
}

func TestFigure7And8(t *testing.T) {
	res := results(t)
	f7 := Figure7(res, true)
	if len(f7) == 0 {
		t.Fatal("no figure 7 rows")
	}
	for _, r := range f7 {
		if r.FracGE2 < 0 || r.FracGE2 > 1 || r.FracEq4 > r.FracGE2 {
			t.Errorf("%s: inconsistent occupancy fractions %+v", r.Name, r)
		}
	}
	f8 := Figure8(res, true)
	if len(f8) == 0 {
		t.Fatal("no figure 8 rows")
	}
	for _, r := range f8 {
		if r.Arch <= 0 {
			t.Errorf("%s: non-positive architectural share", r.Name)
		}
		if r.SpecFail < 0 {
			t.Errorf("%s: negative failed speculation", r.Name)
		}
	}
	if !strings.Contains(FormatFigure7(f7), "average") || !strings.Contains(FormatFigure8(f8), "average") {
		t.Error("figure 7/8 formats missing averages")
	}
}

func TestTable2FractionsSumToOne(t *testing.T) {
	rows := Table2(results(t))
	sum := 0.0
	gainers := 0
	for _, r := range rows {
		sum += r.Fraction
		gainers += r.Loops
	}
	if gainers == 0 {
		t.Fatal("no profitable loops attributed")
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("fractions sum to %.3f, want 1.0", sum)
	}
	if !strings.Contains(FormatTable2(rows), "True parallelism") {
		t.Error("table 2 format missing category")
	}
}

func TestSweepsOrdering(t *testing.T) {
	// One tiny sweep each, checking the paper's qualitative knees: a 512 B
	// SSB loses speedup vs 8 KiB, and line-size granules lose vs 4 B.
	small := subset(t)[:2]
	f9, err := Figure9(small, []int{512, 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if f9[0].Geomean > f9[1].Geomean+0.001 {
		t.Errorf("512B SSB (%0.3f) outperformed 8KiB (%0.3f)", f9[0].Geomean, f9[1].Geomean)
	}
	f10, err := Figure10(small, []int{4, 32})
	if err != nil {
		t.Fatal(err)
	}
	if f10[1].Geomean > f10[0].Geomean+0.001 {
		t.Errorf("line-granule (%0.3f) outperformed 4B (%0.3f)", f10[1].Geomean, f10[0].Geomean)
	}
	if !strings.Contains(FormatSweep("t", f9), "geomean") {
		t.Error("sweep format broken")
	}
}

func TestGeneralityExcludesOpenMP(t *testing.T) {
	res, err := sim.RunSuite(cpu.DefaultConfig(), []*workloads.Benchmark{
		workloads.ByName(workloads.CPU2017(), "mcf"),     // not in an OMP region
		workloads.ByName(workloads.CPU2017(), "imagick"), // inside an OMP region
	})
	if err != nil {
		t.Fatal(err)
	}
	all, nonOMP := Generality(res)
	if all <= 1 || nonOMP <= 1 {
		t.Errorf("geomeans not positive gains: %v %v", all, nonOMP)
	}
	if nonOMP == all {
		t.Error("excluding OpenMP-region loops changed nothing")
	}
}

func TestAreaAndTable3Render(t *testing.T) {
	if !strings.Contains(AreaReport(), "mm2") {
		t.Error("area report missing units")
	}
	out := Table3(1.095)
	for _, want := range []string{"LoopFrog", "STAMPede", "Multiscalar", "x (this repro)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestPackingStudy(t *testing.T) {
	// leela-class loops rely on packing being OFF; use a packing-sensitive
	// pair instead.
	suite := []*workloads.Benchmark{
		workloads.ByName(workloads.CPU2017(), "mcf"),
		workloads.ByName(workloads.CPU2017(), "imagick"),
	}
	p, err := Packing(suite)
	if err != nil {
		t.Fatal(err)
	}
	if p.GeomeanWith <= 0 || p.GeomeanWithout <= 0 {
		t.Fatal("empty packing study")
	}
	if !strings.Contains(FormatPacking(p), "packing factor") {
		t.Error("packing format broken")
	}
}

// TestChaosPanicOnFirstAttemptFails: a cell whose first attempt panics
// fails even when the harness's retry completes and matches the reference,
// while a clean cell in the same batch still passes.
func TestChaosPanicOnFirstAttemptFails(t *testing.T) {
	prog := workloads.ChaosSuite()[0].MustProgram()
	cells := []ChaosCell{
		{Workload: prog.Name, Prog: prog, Seed: 1},
		{Workload: prog.Name, Prog: prog, Seed: 2},
	}
	panicked := false
	err := runChaos(cpu.DefaultConfig(), cells, func(i int, m *cpu.Machine) {
		if i == 0 && !panicked {
			panicked = true
			m.SetEventHook(func(cpu.Event) { panic("first attempt only") })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := &cells[0]; c.Ok() || !errors.Is(c.Err, errPanicRetried) {
		t.Errorf("cell panicking on its first attempt only: err=%v divergence=%q, want %v", c.Err, c.Divergence, errPanicRetried)
	}
	if c := &cells[1]; !c.Ok() {
		t.Errorf("clean cell failed: err=%v divergence=%q", c.Err, c.Divergence)
	}
}
