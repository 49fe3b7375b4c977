package sim

// Two-tier sampled simulation (SMARTS/SimPoint methodology, §6.1). Tier 1 is
// the fast-functional interpreter (internal/fastsim): it executes the whole
// program at tens of millions of instructions per second, warming
// branch-predictor tables and cache tags, and emits a checkpoint every
// Interval instructions. Tier 2 seeds the detailed machine from each
// checkpoint and simulates only a short window — Warmup instructions of
// detailed warmup (letting pipeline/queue state settle; measurement starts
// after) followed by Window measured instructions. Each window's IPC stands
// for its whole interval: measureWindow gives every window the instruction
// count it represents, and EstCycles sums those counts over the window IPCs
// into the whole-run estimate, the paper's SimPoint run-time estimate. An
// A/B pair's speedup is the ratio of its two sides' estimates.
//
// Checkpoints are independent, so the windows of one long program fan out
// across the harness worker pool like unrelated jobs — parallel-in-time
// simulation of a single run — and each checkpoint's windows start as soon
// as tier 1 emits it, while tier 1 runs on. The result: order-of-magnitude
// effective simulation speed at low single-digit percent cycle error.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fastsim"
)

// SampleConfig shapes a sampled run.
type SampleConfig struct {
	// Interval is the checkpoint spacing in instructions (one window per
	// interval). 0 means DefaultSampleConfig's value.
	Interval uint64
	// Window is the number of measured instructions per window; 0 defaults.
	Window uint64
	// Warmup is the number of detailed-warmup instructions simulated before
	// measurement starts in each window; 0 defaults. (Microarchitectural table
	// state comes warm from tier 1; this warmup settles pipeline state the
	// checkpoint does not carry: queues, in-flight windows, threadlets.)
	Warmup uint64
}

// Error budgets for sampled estimates at the full-tiling default, as
// fractions of the full detailed run's cycle count. TestSampledAccuracySuite
// and the lfbench -sampled gate both hold estimates to them.
const (
	// SampledErrBudget is the headline acceptance bound.
	SampledErrBudget = 0.02
	// SampledOutlierBudget is the looser bound for SampledOutliers.
	SampledOutlierBudget = 0.05
)

// SampledOutliers are the workloads whose LoopFrog-side estimate is allowed
// SampledOutlierBudget instead of SampledErrBudget; the baseline side always
// gets the tight budget. A detailed window seeded mid-region restarts the
// spawn chain from scratch; on workloads whose chain dynamics are sensitive
// to that restart (heavy wrong-path squashing, chain-depth-dependent
// packing) the window settles into a measurably different spawn/squash
// equilibrium than the uninterrupted run, and no affordable detailed warmup
// converges the two — a state splice of predictor tables, cache tags,
// monitor and pack state leaves the window bit-identical, so the divergence
// is pipeline trajectory, not seedable state. The outlier budget pins the
// measured errors (povray +4.4%, perlbench -3.7%) so regressions still fail.
var SampledOutliers = map[string]bool{"povray": true, "perlbench": true}

// DefaultSampleConfig returns the accuracy-tuned defaults: full tiling
// (Window == Interval, so measured slices tile the program with no sampling
// gap) at 50k-instruction intervals with 10k of detailed warmup per window.
// On the micro benchmark suite this holds cycle error under 2% on 19 of 21
// workloads (median |error| well under 1%; two spawn-chain-sensitive outliers
// sit near 4%, see EXPERIMENTS.md) while the windows fan out across the
// worker pool. Shorter windows (Window < Interval) trade accuracy for speed —
// the suite's micro workloads have strongly heterogeneous intervals, so the
// default does not sample within the interval; longer, phase-stable programs
// can.
func DefaultSampleConfig() SampleConfig {
	return SampleConfig{Interval: 50_000, Window: 50_000, Warmup: 10_000}
}

// Validate checks the configuration as it would run (defaults applied): the
// warmup must be shorter than the interval, or the checkpoint lead would wrap
// past the previous interval boundary.
func (c SampleConfig) Validate() error {
	c = c.withDefaults()
	if c.Warmup >= c.Interval {
		return fmt.Errorf("sim: sampled warmup (%d) must be shorter than the interval (%d)", c.Warmup, c.Interval)
	}
	return nil
}

func (c SampleConfig) withDefaults() SampleConfig {
	d := DefaultSampleConfig()
	if c.Interval == 0 {
		c.Interval = d.Interval
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	return c
}

// WindowStat is one sampled window's measurement.
type WindowStat struct {
	// At is the checkpoint position (instructions before the window).
	At uint64
	// Insts is the number of instructions this window's IPC stands for (the
	// interval length, truncated at program end).
	Insts uint64
	// MeasInsts/MeasCycles are the measured post-warmup slice.
	MeasInsts  uint64
	MeasCycles int64
	// IPC is the window's measured IPC.
	IPC float64
	// SimInsts is the total detailed instructions simulated for this window
	// (warmup included) — the cost side of the accuracy/speed trade.
	SimInsts uint64
}

// SampledStats is the outcome of one sampled run of (config, program).
type SampledStats struct {
	Sample SampleConfig
	// TotalInsts is the tier-1 dynamic instruction count of the full program.
	TotalInsts uint64
	// Windows are the per-checkpoint measurements, in program order.
	Windows []WindowStat
	// EstCycles is the whole-run cycle estimate.
	EstCycles float64
	// CPI is the interval-weighted cycles per instruction (EstCycles/TotalInsts).
	CPI float64
	// DetailedInsts is the total detailed instructions simulated across all
	// windows (warmup included); DetailedShare is its fraction of TotalInsts.
	DetailedInsts uint64
	DetailedShare float64
	// Regions is the interval-weighted aggregate of the windows' per-region
	// speculation ledgers: each window's ledgers are scaled by the interval
	// it stands for, the same weighting the cycle estimate uses. The
	// aggregate is an estimate — cpu.Stats.ReconcileRegions applies to exact
	// full runs only.
	Regions []cpu.RegionLedger
	// Tier1Nanos and WallNanos time the functional pass and the whole sampled
	// run (tier 1 + all windows, as scheduled); EffectiveIPS is
	// TotalInsts/WallNanos — the headline effective simulation speed. Tier 1
	// runs beside the windows of the checkpoints it has emitted, so
	// Tier1Nanos includes the time it shared the CPUs with them, and
	// WallNanos is less than Tier1Nanos plus the windows' own wall time.
	Tier1Nanos   int64
	WallNanos    int64
	Tier1IPS     float64
	EffectiveIPS float64
}

// Cycles is the estimate rounded to a whole cycle, as job results, reports
// and the tuner carry it.
func (s *SampledStats) Cycles() int64 { return int64(s.EstCycles + 0.5) }

// IPC returns the estimated whole-run IPC.
func (s *SampledStats) IPC() float64 {
	if s.EstCycles == 0 {
		return 0
	}
	return float64(s.TotalInsts) / s.EstCycles
}

// RunSampledCtx runs a sampled estimate of prog on cfg over the harness pool
// under a context: cancellation stops tier-1, every in-flight window, and
// returns with no goroutines left behind. When observe is non-nil it is
// invoked with the window index (program order) and the window's machine
// just before that window's detailed simulation starts, so callers can
// attach telemetry — tracing each parallel-in-time window onto its own trace
// process, say. Observers run on worker goroutines and must be safe for
// concurrent use. Like Job.Observe (which carries it), the hook fires only
// for windows that actually execute a machine: a window served from the
// harness run-cache is never observed.
func (h *Harness) RunSampledCtx(ctx context.Context, cfg cpu.Config, prog *asm.Program, sc SampleConfig, observe func(win int, m *cpu.Machine)) (*SampledStats, error) {
	sides, err := h.sampled(ctx, cfg, []cpu.Config{cfg}, prog, sc, observe)
	if err != nil {
		return nil, err
	}
	return sides[0], nil
}

// SampledResult is a benchmark's sampled A/B outcome: the baseline and
// LoopFrog sampled estimates plus the estimated speedup.
type SampledResult struct {
	Base, LF *SampledStats
	// EstSpeedup is Base.EstCycles / LF.EstCycles: the ratio of the two
	// SimPoint run-time estimates, each window already weighted by the
	// interval it stands for.
	EstSpeedup float64
}

// RunSampledAB runs the baseline/LoopFrog pair of prog as one sampled batch:
// a single tier-1 pass serves both sides (BaselineOf only changes threadlet
// count and packing, never the warming-relevant predictor/cache geometry),
// and all windows of both sides fan out over the pool together.
func (h *Harness) RunSampledAB(cfg cpu.Config, prog *asm.Program, sc SampleConfig) (*SampledResult, error) {
	return h.RunSampledABCtx(context.Background(), cfg, prog, sc)
}

// RunSampledABCtx is RunSampledAB under a context.
func (h *Harness) RunSampledABCtx(ctx context.Context, cfg cpu.Config, prog *asm.Program, sc SampleConfig) (*SampledResult, error) {
	sides, err := h.sampled(ctx, cfg, []cpu.Config{BaselineOf(cfg), cfg}, prog, sc, nil)
	if err != nil {
		return nil, err
	}
	res := &SampledResult{Base: sides[0], LF: sides[1]}
	if res.LF.EstCycles > 0 {
		res.EstSpeedup = res.Base.EstCycles / res.LF.EstCycles
	}
	return res, nil
}

// sampled is the one sampled-run path. A single tier-1 pass under warm
// checkpoints the program, and every side config runs one detailed window
// per checkpoint. The windows of a checkpoint join the pool as soon as tier
// 1 emits it, so tier 1 runs beside the windows of the checkpoints before.
// Each side's windows then assemble into its estimate. observe, when
// non-nil, sees each side's window i as window i.
//
// The whole call is one harness batch. If tier 1 fails, the windows already
// started are cancelled and tier 1's error is returned.
func (h *Harness) sampled(ctx context.Context, warm cpu.Config, sides []cpu.Config, prog *asm.Program, sc SampleConfig, observe func(win int, m *cpu.Machine)) ([]*SampledStats, error) {
	sc = sc.withDefaults()
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: sampled run not started: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One window per checkpoint and side; only the feeder appends, and
	// workers write only the slots of their own task.
	type window struct {
		at    uint64
		stats []*cpu.Stats
		errs  []error
	}
	var wins []*window
	var total uint64
	var t1 int64
	var err error
	h.batch(wctx, h.workers(), func(send func(task)) {
		total, t1, err = tier1(warm, prog, sc, func(ck *cpu.Checkpoint) error {
			i := len(wins)
			w := &window{at: ck.Insts, stats: make([]*cpu.Stats, len(sides)), errs: make([]error, len(sides))}
			wins = append(wins, w)
			// Once every side's window is done with the checkpoint, its
			// tables go to the windows that come after.
			left := new(atomic.Int32)
			left.Store(int32(len(sides)))
			release := func() {
				if left.Add(-1) == 0 {
					ck.Recycle()
				}
			}
			for s, cfg := range sides {
				j := windowJob(cfg, prog, ck, sc)
				if observe != nil {
					j.Observe = func(m *cpu.Machine) { observe(i, m) }
				}
				send(task{job: j, st: &w.stats[s], err: &w.errs[s], done: release})
			}
			return wctx.Err()
		})
		if err != nil {
			cancel()
		}
	})
	if err != nil {
		return nil, err
	}
	for s := range sides {
		for _, w := range wins {
			if werr := w.errs[s]; werr != nil {
				return nil, fmt.Errorf("sim: sampled %s window @%d: %w", sideName(sides[s]), w.at, werr)
			}
		}
	}
	out := make([]*SampledStats, len(sides))
	for s := range sides {
		st := &SampledStats{Sample: sc, TotalInsts: total, Tier1Nanos: t1}
		var regions RegionAccumulator
		for _, win := range wins {
			ws := win.stats[s]
			w, werr := measureWindow(win.at, total, sc, ws)
			if werr != nil {
				return nil, werr
			}
			st.Windows = append(st.Windows, w)
			st.EstCycles += float64(w.Insts) / w.IPC
			st.DetailedInsts += w.SimInsts
			regions.AddScaled(ws.Regions, windowRegionScale(w, ws))
		}
		st.Regions = regions.Ledgers()
		st.CPI = st.EstCycles / float64(total)
		st.DetailedShare = float64(st.DetailedInsts) / float64(total)
		if t1 > 0 {
			st.Tier1IPS = float64(total) / (float64(t1) / 1e9)
		}
		out[s] = st
	}
	wall := int64(time.Since(start))
	for _, st := range out {
		st.WallNanos = wall
		if wall > 0 {
			st.EffectiveIPS = float64(total) / (float64(wall) / 1e9)
		}
	}
	return out, nil
}

// sideName labels a sampled side in errors.
func sideName(cfg cpu.Config) string {
	if cfg.Threadlets <= 1 {
		return "baseline"
	}
	return "loopfrog"
}

// tier1 runs the fast-functional warming pass, handing each checkpoint to
// emit as it is taken, and returns the total instruction count and the
// pass's wall time.
func tier1(cfg cpu.Config, prog *asm.Program, sc SampleConfig, emit func(*cpu.Checkpoint) error) (uint64, int64, error) {
	start := time.Now()
	opts := fastsim.Options{
		CheckpointEvery: sc.Interval,
		// Checkpoints lead their interval boundary by the warmup length, so
		// the measured slice of every window starts exactly at its interval:
		// slices tile the program with no phase offset however long the
		// warmup is.
		CheckpointLead: sc.Warmup % sc.Interval,
		BPred:          &cfg.BPred,
		Hier:           &cfg.Hier,
	}
	if cfg.Threadlets >= 2 {
		// Functionally warm the LoopFrog engine's adaptive state alongside
		// the tables: monitor cooldowns and pack training have memory far
		// longer than any affordable detailed warmup, so windows must inherit
		// them from the checkpoint rather than re-learn inside the window.
		opts.LF = &fastsim.LFWarm{
			Threadlets: cfg.Threadlets,
			Monitor:    cfg.Monitor,
			Pack:       cfg.Pack,
			SSB:        cfg.SSB,
		}
	}
	// The first checkpoint is taken before instruction 0 executes, so a
	// pass that succeeds has emitted at least one.
	fres, err := fastsim.Stream(prog, opts, emit)
	if err != nil {
		return 0, 0, fmt.Errorf("sim: tier-1 functional pass: %w", err)
	}
	return fres.DynInsts, int64(time.Since(start)), nil
}

// windowJob builds the detailed-window job for one checkpoint.
func windowJob(cfg cpu.Config, prog *asm.Program, ck *cpu.Checkpoint, sc SampleConfig) Job {
	cfg.WarmupInsts = sc.Warmup
	cfg.MaxArchInsts = sc.Warmup + sc.Window
	if ck.Insts == 0 {
		// The first checkpoint is the exact boot state: there is nothing to
		// warm, and discarding a warmup slice would hide the true cold-start
		// ramp from the estimate.
		cfg.WarmupInsts = 0
		cfg.MaxArchInsts = sc.Window
	}
	if cfg.Threadlets <= 1 && (ck.Mon != nil || ck.Pack != nil || ck.Region != 0) {
		// Baseline windows share the LF-side tier-1 pass; a single-context
		// machine has no engine to seed, so strip the LF warm state (the
		// shallow copy shares the immutable Mem/BP/Hier snapshots).
		base := *ck
		base.Mon, base.Pack, base.Region = nil, nil, 0
		ck = &base
	}
	return Job{Cfg: cfg, Prog: prog, Ckpt: ck}
}

// measureWindow turns a window run's Stats into a WindowStat. The measured
// slice is the post-warmup remainder; a window whose program portion ended
// before the warmup target falls back to the whole window (there is no
// steady state to isolate in a terminal fragment). Both endpoints count
// instructions as ArchInsts plus the live speculative commits — the smooth
// counter — so epochs promoted in bulk across a window edge do not skew the
// measured IPC (their instructions and cycles land on the same side).
func measureWindow(at, total uint64, sc SampleConfig, st *cpu.Stats) (WindowStat, error) {
	w := WindowStat{At: at, SimInsts: st.ArchInsts}
	// The window stands for the interval its MEASURED slice starts in: the
	// checkpoint leads the interval boundary by the warmup length (tier1's
	// CheckpointLead), so measurement begins at the boundary itself. The
	// first checkpoint is the boot state and measures from zero.
	tile := at
	if at > 0 {
		tile = at + sc.Warmup
	}
	if tile >= total {
		// The terminal fragment is shorter than the warmup: the slice it
		// would stand for is empty.
		w.Insts = 0
	} else {
		w.Insts = total - tile
		if w.Insts > sc.Interval {
			w.Insts = sc.Interval
		}
	}
	end := st.ArchInsts + st.EndLive
	warm := st.WarmupEndInsts + st.WarmupEndLive
	if st.WarmupEndCycle > 0 && st.Cycles > st.WarmupEndCycle && end > warm {
		w.MeasInsts = end - warm
		w.MeasCycles = st.Cycles - st.WarmupEndCycle
	} else {
		w.MeasInsts = end
		w.MeasCycles = st.Cycles
	}
	if w.MeasCycles <= 0 || w.MeasInsts == 0 {
		return w, fmt.Errorf("sim: sampled window @%d measured nothing (insts=%d cycles=%d)", at, w.MeasInsts, w.MeasCycles)
	}
	w.IPC = float64(w.MeasInsts) / float64(w.MeasCycles)
	return w, nil
}
