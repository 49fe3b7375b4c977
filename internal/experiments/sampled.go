package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

// SampledCell is one workload's accuracy and cost measurement at one sample
// configuration.
type SampledCell struct {
	Workload string `json:"workload"`
	// Full detailed cycle counts (ground truth) and their pair wall time.
	FullBase      int64 `json:"full_base_cycles"`
	FullLF        int64 `json:"full_lf_cycles"`
	FullWallNanos int64 `json:"full_wall_ns"`
	// Sampled estimates and the sampled pair's wall time (tier 1 + windows).
	EstBase          float64 `json:"est_base_cycles"`
	EstLF            float64 `json:"est_lf_cycles"`
	SampledWallNanos int64   `json:"sampled_wall_ns"`
	// Signed cycle errors, percent.
	BaseErrPct float64 `json:"base_err_pct"`
	LFErrPct   float64 `json:"lf_err_pct"`
	// TrueSpeedup and EstSpeedup compare the program speedup conclusion the
	// full runs and the sampled estimates reach.
	TrueSpeedup float64 `json:"true_speedup"`
	EstSpeedup  float64 `json:"est_speedup"`
	// SimSpeedup is the simulation-speed gain: full pair wall time over
	// sampled pair wall time on this host. Window-parallel hosts scale it
	// further; see EXPERIMENTS.md.
	SimSpeedup float64 `json:"sim_speedup"`
	// Tier1MIPS is the standalone fast-functional rate, million insts/s;
	// EffectiveMIPS is program instructions over the sampled pair's wall time.
	Tier1MIPS     float64 `json:"tier1_minsts_per_sec"`
	EffectiveMIPS float64 `json:"effective_minsts_per_sec"`
	// DetailedShare is the fraction of the program's instructions simulated in
	// detail (warmup included), averaged over the two sides.
	DetailedShare float64 `json:"detailed_share"`
	// Outlier marks the workload as one of sim.SampledOutliers.
	Outlier bool `json:"outlier,omitempty"`
}

// SampledPoint is one sample configuration's row of the accuracy-vs-speedup
// curve, with per-workload cells and suite aggregates.
type SampledPoint struct {
	Interval uint64        `json:"interval"`
	Window   uint64        `json:"window"`
	Warmup   uint64        `json:"warmup"`
	Cells    []SampledCell `json:"cells"`
	// Aggregates over the suite.
	MeanAbsBaseErrPct float64 `json:"mean_abs_base_err_pct"`
	MeanAbsLFErrPct   float64 `json:"mean_abs_lf_err_pct"`
	MaxAbsLFErrPct    float64 `json:"max_abs_lf_err_pct"` // non-outliers only
	GeoSimSpeedup     float64 `json:"geomean_sim_speedup"`
	MeanDetailedShare float64 `json:"mean_detailed_share"`
	MeanTier1MIPS     float64 `json:"mean_tier1_minsts_per_sec"`
}

// FullTiling reports whether this point's measured windows tile the program
// (no sampling gap) — the configuration class the accuracy gate applies to.
func (p *SampledPoint) FullTiling() bool { return p.Window >= p.Interval }

// SampledCurveConfigs returns the accuracy-vs-speedup sweep, from the most
// aggressive sub-interval sampling to the full-tiling default. Only the
// full-tiling point is gated on the 2% budget: sub-interval windows trade
// accuracy for speed on this suite's phase-heterogeneous micro workloads.
func SampledCurveConfigs() []sim.SampleConfig {
	return []sim.SampleConfig{
		{Interval: 50_000, Window: 5_000, Warmup: 2_000},
		{Interval: 50_000, Window: 10_000, Warmup: 5_000},
		{Interval: 50_000, Window: 25_000, Warmup: 10_000},
		sim.DefaultSampleConfig(),
	}
}

// Sampled runs the sampled-accuracy study: one full detailed A/B pair per
// workload as ground truth, then a sampled A/B estimate per (workload,
// config), on a fresh harness so wall times are honest (no run-cache hits
// from earlier experiments).
func Sampled(suite []*workloads.Benchmark, configs []sim.SampleConfig) ([]SampledPoint, error) {
	h := sim.NewHarness()
	cfg := cpu.DefaultConfig()
	base := sim.BaselineOf(cfg)

	type truth struct {
		baseCycles, lfCycles int64
		wallNanos            int64
	}
	truths := make(map[string]truth, len(suite))
	for _, b := range suite {
		prog, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("sampled: %s: %w", b.Name, err)
		}
		start := time.Now()
		stats, err := h.RunJobs([]sim.Job{{Cfg: base, Prog: prog}, {Cfg: cfg, Prog: prog}})
		if err != nil {
			return nil, fmt.Errorf("sampled: full %s: %w", b.Name, err)
		}
		truths[b.Name] = truth{
			baseCycles: stats[0].Cycles,
			lfCycles:   stats[1].Cycles,
			wallNanos:  int64(time.Since(start)),
		}
	}

	var points []SampledPoint
	for _, scfg := range configs {
		p := SampledPoint{Interval: scfg.Interval, Window: scfg.Window, Warmup: scfg.Warmup}
		var absBase, absLF, logSpeed []float64
		for _, b := range suite {
			prog, err := b.Program()
			if err != nil {
				return nil, fmt.Errorf("sampled: %s: %w", b.Name, err)
			}
			res, err := h.RunSampledAB(cfg, prog, scfg)
			if err != nil {
				return nil, fmt.Errorf("sampled: %s @{%d,%d,%d}: %w", b.Name, scfg.Interval, scfg.Window, scfg.Warmup, err)
			}
			tr := truths[b.Name]
			c := SampledCell{
				Workload:         b.Name,
				FullBase:         tr.baseCycles,
				FullLF:           tr.lfCycles,
				FullWallNanos:    tr.wallNanos,
				EstBase:          res.Base.EstCycles,
				EstLF:            res.LF.EstCycles,
				SampledWallNanos: res.Base.WallNanos,
				BaseErrPct:       100 * (res.Base.EstCycles/float64(tr.baseCycles) - 1),
				LFErrPct:         100 * (res.LF.EstCycles/float64(tr.lfCycles) - 1),
				TrueSpeedup:      float64(tr.baseCycles) / float64(tr.lfCycles),
				EstSpeedup:       res.EstSpeedup,
				Tier1MIPS:        res.Base.Tier1IPS / 1e6,
				EffectiveMIPS:    res.Base.EffectiveIPS / 1e6,
				DetailedShare:    (res.Base.DetailedShare + res.LF.DetailedShare) / 2,
				Outlier:          sim.SampledOutliers[b.Name],
			}
			if c.SampledWallNanos > 0 {
				c.SimSpeedup = float64(c.FullWallNanos) / float64(c.SampledWallNanos)
			}
			p.Cells = append(p.Cells, c)
			absBase = append(absBase, math.Abs(c.BaseErrPct))
			absLF = append(absLF, math.Abs(c.LFErrPct))
			if !c.Outlier && math.Abs(c.LFErrPct) > p.MaxAbsLFErrPct {
				p.MaxAbsLFErrPct = math.Abs(c.LFErrPct)
			}
			if c.SimSpeedup > 0 {
				logSpeed = append(logSpeed, c.SimSpeedup)
			}
			p.MeanDetailedShare += c.DetailedShare
			p.MeanTier1MIPS += c.Tier1MIPS
		}
		p.MeanAbsBaseErrPct = mean(absBase)
		p.MeanAbsLFErrPct = mean(absLF)
		p.GeoSimSpeedup = sim.Geomean(logSpeed)
		if n := float64(len(p.Cells)); n > 0 {
			p.MeanDetailedShare /= n
			p.MeanTier1MIPS /= n
		}
		points = append(points, p)
	}
	return points, nil
}

// SampledFailures returns one message per cell of the full-tiling points that
// breaches its error budget (sim.SampledErrBudget, or sim.SampledOutlierBudget
// for the documented LF-side outliers). Sub-interval points are never gated.
func SampledFailures(points []SampledPoint) []string {
	var fails []string
	for _, p := range points {
		if !p.FullTiling() {
			continue
		}
		for _, c := range p.Cells {
			lfBudget := 100 * sim.SampledErrBudget
			if c.Outlier {
				lfBudget = 100 * sim.SampledOutlierBudget
			}
			if math.Abs(c.BaseErrPct) > 100*sim.SampledErrBudget {
				fails = append(fails, fmt.Sprintf("%s baseline cycle error %+.2f%% exceeds %.1f%% at {%d,%d,%d}",
					c.Workload, c.BaseErrPct, 100*sim.SampledErrBudget, p.Interval, p.Window, p.Warmup))
			}
			if math.Abs(c.LFErrPct) > lfBudget {
				fails = append(fails, fmt.Sprintf("%s loopfrog cycle error %+.2f%% exceeds %.1f%% at {%d,%d,%d}",
					c.Workload, c.LFErrPct, lfBudget, p.Interval, p.Window, p.Warmup))
			}
		}
	}
	return fails
}

// FormatSampled renders the study: one table per configuration plus the
// accuracy-vs-speedup summary across configurations.
func FormatSampled(points []SampledPoint) string {
	var b strings.Builder
	for _, p := range points {
		gate := "curve point (not gated)"
		if p.FullTiling() {
			gate = "full tiling (gated at 2%)"
		}
		fmt.Fprintf(&b, "Sampled accuracy: interval %d, window %d, warmup %d — %s\n",
			p.Interval, p.Window, p.Warmup, gate)
		fmt.Fprintf(&b, "%-12s %12s %12s %7s %12s %12s %7s %7s %7s %8s\n",
			"workload", "full-base", "est-base", "err%", "full-lf", "est-lf", "err%", "spdup", "est", "simx")
		for _, c := range p.Cells {
			mark := ""
			if c.Outlier {
				mark = "*"
			}
			fmt.Fprintf(&b, "%-12s %12d %12.0f %+6.2f%% %12d %12.0f %+6.2f%% %6.3fx %6.3fx %7.2fx%s\n",
				c.Workload, c.FullBase, c.EstBase, c.BaseErrPct,
				c.FullLF, c.EstLF, c.LFErrPct, c.TrueSpeedup, c.EstSpeedup, c.SimSpeedup, mark)
		}
		fmt.Fprintf(&b, "mean |err| base %.2f%%, lf %.2f%% (max non-outlier %.2f%%); detailed share %.0f%%, tier-1 %.1fM insts/s, sim speedup %.2fx geomean\n\n",
			p.MeanAbsBaseErrPct, p.MeanAbsLFErrPct, p.MaxAbsLFErrPct,
			100*p.MeanDetailedShare, p.MeanTier1MIPS, p.GeoSimSpeedup)
	}
	if len(points) > 1 {
		b.WriteString("Accuracy vs speedup:\n")
		fmt.Fprintf(&b, "%-22s %10s %10s %12s %10s\n", "config", "|err| lf", "max n-o", "det share", "sim spdup")
		for _, p := range points {
			fmt.Fprintf(&b, "{%d,%d,%d}%*s %9.2f%% %9.2f%% %11.0f%% %9.2fx\n",
				p.Interval, p.Window, p.Warmup,
				max(0, 21-len(fmt.Sprintf("{%d,%d,%d}", p.Interval, p.Window, p.Warmup))), "",
				p.MeanAbsLFErrPct, p.MaxAbsLFErrPct, 100*p.MeanDetailedShare, p.GeoSimSpeedup)
		}
		b.WriteString("* documented outlier (5% budget): window restarts the spawn chain mid-region; see EXPERIMENTS.md\n")
	}
	return b.String()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
