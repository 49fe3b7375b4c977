package sim

import (
	"math"
	"testing"

	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8}, 4},
		{[]float64{1, 0, 4}, 0},
	}
	for _, c := range cases {
		if got := Geomean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestBaselineOf(t *testing.T) {
	cfg := cpu.DefaultConfig()
	base := BaselineOf(cfg)
	if base.Threadlets != 1 || base.Pack.Enabled {
		t.Error("baseline not sequential")
	}
	if base.Width != cfg.Width || base.ROBSize != cfg.ROBSize {
		t.Error("baseline changed core parameters")
	}
}

func TestCompareOnBenchmark(t *testing.T) {
	b := workloads.ByName(workloads.CPU2017(), "imagick")
	if b == nil {
		t.Fatal("imagick stand-in missing")
	}
	res, err := DefaultHarness().RunSuite(cpu.DefaultConfig(), []*workloads.Benchmark{b})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Base.ArchInsts != r.LF.ArchInsts {
		t.Error("instruction counts differ between runs")
	}
	if r.Speedup() < 1.0 {
		t.Errorf("imagick-class kernel slowed down: %.3f", r.Speedup())
	}
	if r.LF.Spawns == 0 {
		t.Error("no threadlets spawned")
	}
}

// TestEstimateSpeedup: a sampled A/B speedup is the ratio of the two
// sides' SimPoint run-time estimates, exactly. perlbench at the tuner's
// rung-0 shape is where weighting each window a second time moved it most
// (-1.10%), and lfsim, lfreport and lfservd all print this one number.
func TestEstimateSpeedup(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "perlbench").MustProgram()
	res, err := DefaultHarness().RunSampledAB(cpu.DefaultConfig(), prog, SampleConfig{Interval: 50_000, Window: 10_000, Warmup: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Base.EstCycles / res.LF.EstCycles
	if res.EstSpeedup != want {
		t.Errorf("EstSpeedup = %v, want Base.EstCycles/LF.EstCycles = %v (%+.2f%%)",
			res.EstSpeedup, want, 100*(res.EstSpeedup/want-1))
	}
	for _, st := range []*SampledStats{res.Base, res.LF} {
		var est float64
		for _, w := range st.Windows {
			est += float64(w.Insts) / w.IPC
		}
		if est != st.EstCycles {
			t.Errorf("EstCycles %v is not the windows' represented instructions over their IPCs (%v)", st.EstCycles, est)
		}
	}
}

func TestSuitesCompile(t *testing.T) {
	for _, suite := range [][]*workloads.Benchmark{workloads.CPU2017(), workloads.CPU2006()} {
		for _, b := range suite {
			if _, err := b.Program(); err != nil {
				t.Errorf("%s/%s: %v", b.Suite, b.Name, err)
			}
		}
	}
}
