package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

// TuneRow is one workload of the autotuning study: the search's outcome and
// its cost. Scores are speedups over the shared hints-as-NOPs baseline from
// full detailed runs, so winner_score / static_score > 1 means the tuned hint
// selection beats the compiler's static one.
type TuneRow struct {
	Workload  string `json:"workload"`
	SpaceSize int    `json:"space_size"`
	Pruned    int    `json:"pruned"`
	// Evaluations counts the detailed runs the search requested: every
	// ranked variant plus the shared baseline.
	Evaluations int `json:"evaluations"`
	// Winner describes the winning variant (tune.Variant.Desc); StaticScore
	// is the anchor's speedup — the control arm.
	Winner      string  `json:"winner"`
	WinnerScore float64 `json:"winner_score"`
	StaticScore float64 `json:"static_score"`
	// GainPct is the winner's advantage over the static selection in percent.
	GainPct float64 `json:"gain_pct"`
	// Seconds is the search's wall-clock cost on this host.
	Seconds float64 `json:"seconds"`
}

// TuneSuite selects the workloads the autotuning study retunes: programs
// whose static hint selection is known-good (the true-parallelism classes,
// where the anchor should win) next to the paper's no-speedup classes
// (§6.4.3), where de-selecting or re-knobbing hints is exactly what the
// tuner exists to find.
func TuneSuite() []*workloads.Benchmark {
	names := []string{"mcf", "x264", "leela", "deepsjeng", "xz", "namd"}
	suite := workloads.CPU2017()
	var out []*workloads.Benchmark
	for _, n := range names {
		if b := workloads.ByName(suite, n); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// TuneStudy runs the autotuner once over each workload.
func TuneStudy(suite []*workloads.Benchmark) ([]TuneRow, error) {
	h := &sim.Harness{Cache: sim.NewRunCache()}
	var rows []TuneRow
	for _, b := range suite {
		if b.Source() == "" {
			return nil, fmt.Errorf("tune study: %s is a prebuilt asm workload", b.Name)
		}
		start := time.Now()
		rep, err := tune.Tune(context.Background(),
			tune.Spec{Program: b.Name, Source: b.Source()}, tune.Local{H: h})
		if err != nil {
			return nil, fmt.Errorf("tune study: %s: %w", b.Name, err)
		}
		r := TuneRow{
			Workload:    b.Name,
			SpaceSize:   rep.SpaceSize,
			Pruned:      len(rep.Pruned),
			Evaluations: len(rep.Ranking) + 1,
			Winner:      rep.Winner.Variant.Desc(),
			WinnerScore: rep.Winner.Score,
			StaticScore: rep.Static.Score,
			Seconds:     time.Since(start).Seconds(),
		}
		if rep.Static.Score > 0 {
			r.GainPct = 100 * (rep.Winner.Score/rep.Static.Score - 1)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// TuneBeats counts the workloads whose winner strictly improves on the
// static selection.
func TuneBeats(rows []TuneRow) int {
	n := 0
	for _, r := range rows {
		if r.WinnerScore > r.StaticScore {
			n++
		}
	}
	return n
}

// TuneFailures lists gate breaches: the anchor is always ranked, so a
// winner scoring below the static selection means the search machinery
// itself is broken.
func TuneFailures(rows []TuneRow) []string {
	var fails []string
	for _, r := range rows {
		if r.WinnerScore < r.StaticScore {
			fails = append(fails, fmt.Sprintf("%s: winner %.4f below static %.4f",
				r.Workload, r.WinnerScore, r.StaticScore))
		}
	}
	return fails
}

// FormatTune renders the study as the autotuned-vs-static table.
func FormatTune(rows []TuneRow) string {
	var sb strings.Builder
	sb.WriteString("Autotuned vs static hint selection (every variant, detailed runs)\n")
	fmt.Fprintf(&sb, "%-12s %6s %7s %6s  %-26s %8s %8s %7s %7s\n",
		"workload", "space", "pruned", "evals", "winner", "tuned", "static", "gain%", "sec")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %6d %7d %6d  %-26s %8.4f %8.4f %7.4f %7.2f\n",
			r.Workload, r.SpaceSize, r.Pruned, r.Evaluations,
			r.Winner, r.WinnerScore, r.StaticScore, r.GainPct, r.Seconds)
	}
	fmt.Fprintf(&sb, "\n%d/%d workloads improve on the static selection\n", TuneBeats(rows), len(rows))
	return sb.String()
}
