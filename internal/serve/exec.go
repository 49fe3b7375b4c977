package serve

// The HTTP-independent half of a sim job: the simulation rules a spec must
// satisfy, the machine configuration it derives, and its execution on a
// local harness. Server.run goes through these for every locally executed
// sim job, and lfsim and lfreport build a JobSpec from their flags and go
// through the same functions, so one request gets one answer whichever
// front end receives it.

import (
	"context"
	"fmt"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fault"
	"loopfrog/internal/lint"
	"loopfrog/internal/report"
	"loopfrog/internal/sim"
)

// ValidateSim checks the simulation rules of a spec: which run modes
// combine, and that its fault spec and sample shape are well formed.
func (spec *JobSpec) ValidateSim() error {
	if spec.Baseline && spec.AB {
		return fmt.Errorf("baseline and ab are mutually exclusive")
	}
	if spec.Faults != "" {
		if _, err := fault.Parse(spec.Faults, spec.Seed); err != nil {
			return err
		}
	}
	if !spec.Sampled {
		if spec.SampleInterval != 0 || spec.SampleWindow != 0 || spec.SampleWarmup != 0 {
			return fmt.Errorf("sample_interval/sample_window/sample_warmup require sampled: true")
		}
		return nil
	}
	if spec.Faults != "" {
		return fmt.Errorf("sampled and faults are mutually exclusive: fault injection needs the detailed machine over the whole run")
	}
	if spec.Spectre || spec.Mitigate {
		return fmt.Errorf("sampled and spectre/mitigate are mutually exclusive: taint state cannot survive checkpoint seeding")
	}
	return spec.sampleConfig().Validate()
}

// sampleConfig is the spec's sampled-run shape (zero fields take the
// defaults).
func (spec *JobSpec) sampleConfig() sim.SampleConfig {
	return sim.SampleConfig{Interval: spec.SampleInterval, Window: spec.SampleWindow, Warmup: spec.SampleWarmup}
}

// MachineConfig derives the machine configuration from the spec.
func (spec *JobSpec) MachineConfig() (cpu.Config, error) {
	threadlets := spec.Threadlets
	if threadlets == 0 {
		threadlets = 4
	}
	if threadlets < 1 {
		return cpu.Config{}, fmt.Errorf("threadlets must be at least 1 (got %d)", threadlets)
	}
	cfg := cpu.DefaultConfig()
	cfg.Threadlets = threadlets
	if spec.hasVariant() {
		// Derive the engine knobs exactly the way the tuner's in-process
		// evaluator does, so a fanned-out evaluation fingerprints (and
		// run-caches) identically on the worker.
		v := spec.variant()
		cfg = v.Config(cfg)
	}
	if spec.NoPack {
		cfg.Pack.Enabled = false
	}
	if spec.MaxCycles > 0 {
		cfg.MaxCycles = spec.MaxCycles
	}
	if spec.Baseline {
		cfg = sim.BaselineOf(cfg)
	}
	cfg.SpectreAnalysis = spec.Spectre
	cfg.DelaySpeculativeLoadDeps = spec.Mitigate
	return cfg, nil
}

// Exec is what a local execution needs beside its spec.
type Exec struct {
	Prog *asm.Program
	// Cfg is the spec's MachineConfig.
	Cfg cpu.Config
	// Lint, when non-nil, joins its static region table into the result's
	// region rows.
	Lint *lint.Report
	// Timeout bounds the execution's wall time; 0 means none.
	Timeout time.Duration
	// Observe sees the live machine of a detailed run's LoopFrog (or only)
	// side; ObserveWindow sees each window machine of a sampled run that is
	// not an A/B pair, window i as i. Neither fires on a run-cache hit.
	Observe       func(m *cpu.Machine)
	ObserveWindow func(win int, m *cpu.Machine)
}

// Outcome is one sim spec executed on a local harness: the job result, and
// the per-side statistics it was built from, for front ends that print or
// check more than the result carries. An A/B pair lists its baseline first.
type Outcome struct {
	Result *JobResult
	// Stats holds the detailed runs; nil for a sampled spec.
	Stats []*cpu.Stats
	// Sampled holds the sampled estimates; nil for a detailed spec.
	Sampled []*sim.SampledStats
}

// Execute runs a validated sim spec on h: a plain or A/B detailed run, or a
// sampled or sampled A/B estimate. An A/B pair schedules both sides as one
// batch (concurrently when workers allow, deduplicated by the run-cache);
// fault injection applies to the LoopFrog side only, so the baseline stays
// the clean reference timing.
func Execute(ctx context.Context, h *sim.Harness, spec *JobSpec, x Exec) (*Outcome, error) {
	if spec.Sampled {
		return executeSampled(ctx, h, spec, x)
	}
	var jobs []sim.Job
	if spec.AB {
		jobs = append(jobs, sim.Job{Cfg: sim.BaselineOf(x.Cfg), Prog: x.Prog, Timeout: x.Timeout})
	}
	jobs = append(jobs, sim.Job{Cfg: x.Cfg, Prog: x.Prog, Faults: spec.Faults, Seed: spec.Seed, Timeout: x.Timeout, Observe: x.Observe})
	stats, errs := h.RunJobsCtx(ctx, jobs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &JobResult{Program: x.Prog.Name}
	st := stats[len(stats)-1]
	res.Cycles = st.Cycles
	res.ArchInsts = st.ArchInsts
	res.IPC = st.IPC()
	res.Spawns = st.Spawns
	for _, n := range st.Squashes {
		res.Squashes += n
	}
	if spec.AB {
		res.BaselineCycles = stats[0].Cycles
		res.LoopFrogCycles = st.Cycles
		if st.Cycles > 0 {
			res.Speedup = float64(stats[0].Cycles) / float64(st.Cycles)
		}
	}
	if spec.Spectre || spec.Mitigate {
		res.LeakCandidates = st.LeakCandidates
		res.Leaks = st.Leaks
		res.DelayedWakes = st.DelayedWakes
	}
	attachRegions(res, st.Regions, x.Lint, false)
	return &Outcome{Result: res, Stats: stats}, nil
}

// executeSampled runs the tier-1 pass plus every detailed window inside the
// deadline, windows fanned over the harness pool like any other jobs. An A/B
// pair shares one tier-1 pass, and its speedup is the ratio of the two
// sides' estimated cycles.
func executeSampled(ctx context.Context, h *sim.Harness, spec *JobSpec, x Exec) (*Outcome, error) {
	if x.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, x.Timeout)
		defer cancel()
	}
	res := &JobResult{Program: x.Prog.Name, Sampled: true}
	var sides []*sim.SampledStats
	if spec.AB {
		ab, err := h.RunSampledABCtx(ctx, x.Cfg, x.Prog, spec.sampleConfig())
		if err != nil {
			return nil, err
		}
		sides = []*sim.SampledStats{ab.Base, ab.LF}
		res.BaselineCycles = ab.Base.Cycles()
		res.LoopFrogCycles = ab.LF.Cycles()
		res.Speedup = ab.EstSpeedup
	} else {
		st, err := h.RunSampledCtx(ctx, x.Cfg, x.Prog, spec.sampleConfig(), x.ObserveWindow)
		if err != nil {
			return nil, err
		}
		sides = []*sim.SampledStats{st}
	}
	st := sides[len(sides)-1]
	res.Cycles = st.Cycles()
	res.ArchInsts = st.TotalInsts
	res.IPC = st.IPC()
	res.Windows = len(st.Windows)
	res.DetailedShare = st.DetailedShare
	res.Tier1IPS = st.Tier1IPS
	res.EffectiveIPS = st.EffectiveIPS
	attachRegions(res, st.Regions, x.Lint, true)
	return &Outcome{Result: res, Sampled: sides}, nil
}

// attachRegions joins a run's per-region speculation ledgers with a lint
// report's static region table into the ranked per-loop rows lfreport
// renders, carried inline in the job result. Runs without ledgers (region
// tracking disabled, no regions executed) attach nothing.
func attachRegions(res *JobResult, regions []cpu.RegionLedger, lrep *lint.Report, estimated bool) {
	if len(regions) == 0 {
		return
	}
	prof := report.Build(report.Input{
		Program:        res.Program,
		Regions:        regions,
		Cycles:         res.Cycles,
		BaselineCycles: res.BaselineCycles,
		Estimated:      estimated,
		Lint:           lrep,
	})
	res.Regions = prof.Rows
	res.OutsideSlots = prof.OutsideSlots
}

// Profile is the result's per-region report: the rows and outside-slot
// attribution it carries under the result's cycles and speedup.
func (r *JobResult) Profile() *report.Profile {
	return &report.Profile{
		Program:        r.Program,
		Estimated:      r.Sampled,
		Cycles:         r.Cycles,
		BaselineCycles: r.BaselineCycles,
		Speedup:        r.Speedup,
		Rows:           r.Regions,
		OutsideSlots:   r.OutsideSlots,
	}
}
