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
	r, err := DefaultHarness().Compare(cpu.DefaultConfig(), b)
	if err != nil {
		t.Fatal(err)
	}
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

func TestEstimateSpeedup(t *testing.T) {
	phases := []Phase{
		{Weight: 0.5, Insts: 1000, BaseIPC: 2, LFIPC: 4}, // 2x in this phase
		{Weight: 0.5, Insts: 1000, BaseIPC: 2, LFIPC: 2}, // flat here
	}
	got, err := EstimateSpeedup(phases)
	if err != nil {
		t.Fatal(err)
	}
	// time_base = .5*500 + .5*500 = 500; time_lf = .5*250 + .5*500 = 375.
	want := 500.0 / 375.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EstimateSpeedup = %v, want %v", got, want)
	}
}

func TestEstimateSpeedupValidation(t *testing.T) {
	if _, err := EstimateSpeedup(nil); err == nil {
		t.Error("empty phases accepted")
	}
	if _, err := EstimateSpeedup([]Phase{{Weight: 0.2, Insts: 1, BaseIPC: 1, LFIPC: 1}}); err == nil {
		t.Error("weights not summing to 1 accepted")
	}
	if _, err := EstimateSpeedup([]Phase{{Weight: 1, Insts: 1, BaseIPC: 0, LFIPC: 1}}); err == nil {
		t.Error("zero IPC accepted")
	}
	if _, err := EstimateSpeedup([]Phase{{Weight: -1, Insts: 1, BaseIPC: 1, LFIPC: 1}, {Weight: 2, Insts: 1, BaseIPC: 1, LFIPC: 1}}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWeightedStat(t *testing.T) {
	got, err := WeightedStat([]float64{1, 3}, []float64{2.0, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.5) > 1e-12 {
		t.Errorf("WeightedStat = %v, want 3.5", got)
	}
	if _, err := WeightedStat([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
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
