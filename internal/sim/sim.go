// Package sim is the evaluation harness: it runs benchmark programs on
// baseline and LoopFrog configurations, computes speedups, and aggregates
// suite-level statistics the way the paper does (§6.1).
package sim

import (
	"math"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

// BaselineOf derives the paper's baseline run from a LoopFrog configuration:
// the identical core with hints treated as NOPs (one threadlet context).
func BaselineOf(cfg cpu.Config) cpu.Config {
	base := cfg
	base.Threadlets = 1
	base.Pack.Enabled = false
	return base
}

// Run executes prog on cfg and returns the statistics.
func Run(cfg cpu.Config, prog *asm.Program) (*cpu.Stats, error) {
	m, err := cpu.NewMachine(cfg, prog)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// Result is one benchmark's A/B outcome.
type Result struct {
	Bench *workloads.Benchmark
	Base  *cpu.Stats
	LF    *cpu.Stats
}

// RegionSpeedup returns baseline cycles / LoopFrog cycles over the simulated
// (loop-region) part of the benchmark.
func (r *Result) RegionSpeedup() float64 {
	if r.LF.Cycles == 0 {
		return 0
	}
	return float64(r.Base.Cycles) / float64(r.LF.Cycles)
}

// Speedup returns the whole-program speedup: the simulated loop region
// combined with the benchmark's unaccelerated sequential remainder
// (SeqTimeRatio x the baseline region time), the same phase-weighted
// run-time estimation the paper performs with SimPoint data (§6.1).
func (r *Result) Speedup() float64 {
	f := r.Bench.SeqTimeRatio
	b := float64(r.Base.Cycles)
	l := float64(r.LF.Cycles)
	if l+f*b == 0 {
		return 0
	}
	return b * (1 + f) / (l + f*b)
}

// LFTimeShare returns the fraction of LoopFrog whole-program time spent in
// the simulated region; per-region statistics (threadlet occupancy, commit
// attribution) dilute by this share when reported program-wide.
func (r *Result) LFTimeShare() float64 {
	f := r.Bench.SeqTimeRatio
	b := float64(r.Base.Cycles)
	l := float64(r.LF.Cycles)
	if l+f*b == 0 {
		return 0
	}
	return l / (l + f*b)
}

// RunSuite compares every benchmark in the suite under cfg on the default
// harness, fanning all runs out over the worker pool. Results are ordered
// like the suite and are identical to a sequential one-benchmark-at-a-time
// evaluation.
func RunSuite(cfg cpu.Config, suite []*workloads.Benchmark) ([]*Result, error) {
	return DefaultHarness().RunSuite(cfg, suite)
}

// RunJobs executes arbitrary (config, program) jobs on the default harness;
// see Harness.RunJobs.
func RunJobs(jobs []Job) ([]*cpu.Stats, error) {
	return DefaultHarness().RunJobs(jobs)
}

// Geomean returns the geometric mean of xs (1.0 for empty input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeomeanSpeedup aggregates suite results the way the paper reports
// whole-suite numbers.
func GeomeanSpeedup(results []*Result) float64 {
	xs := make([]float64, 0, len(results))
	for _, r := range results {
		xs = append(xs, r.Speedup())
	}
	return Geomean(xs)
}
