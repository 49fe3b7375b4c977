package tune_test

import (
	"context"
	"testing"

	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
)

// twoLoopSrc has two @loopfrog loops with different characters: a clean
// parallel map (hint worth keeping) and a serial reduction whose
// cross-iteration dependency makes the hint a candidate for de-selection.
// Two sites give the mask axis four points, so the enumerated space holds
// more than the knob axes alone.
const twoLoopSrc = `
var xs: [256]int;
var ys: [256]int;
var acc: [1]int;

fn main() -> int {
    for i in 0..256 {
        xs[i] = i * 5 + 3;
    }
    @loopfrog
    for i in 0..256 {
        var t: int = xs[i];
        t = t * t + 11;
        ys[i] = t;
    }
    @loopfrog
    for i in 0..256 {
        acc[0] = acc[0] + ys[i];
    }
    return acc[0];
}
`

func runTune(t *testing.T, h *sim.Harness) *tune.Report {
	t.Helper()
	rep, err := tune.Tune(context.Background(),
		tune.Spec{Program: "tunetest", Source: twoLoopSrc}, tune.Local{H: h})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	return rep
}

// TestRankingDeterministicAcrossWorkers is the reproducibility contract:
// the same program produces the identical ranking — IDs, cycles, scores —
// whether the harness runs one worker or many. Scheduling order must never
// leak into the search.
func TestRankingDeterministicAcrossWorkers(t *testing.T) {
	r1 := runTune(t, &sim.Harness{Workers: 1, Cache: sim.NewRunCache()})
	rN := runTune(t, &sim.Harness{Workers: 8, Cache: sim.NewRunCache()})

	if len(r1.Ranking) != len(rN.Ranking) {
		t.Fatalf("ranking length differs: 1 worker %d, 8 workers %d", len(r1.Ranking), len(rN.Ranking))
	}
	for i := range r1.Ranking {
		a, b := r1.Ranking[i], rN.Ranking[i]
		if a.Variant.ID != b.Variant.ID || a.Cycles != b.Cycles || a.Score != b.Score {
			t.Errorf("ranking[%d] differs: 1 worker {id %d cycles %d score %.6f}, 8 workers {id %d cycles %d score %.6f}",
				i, a.Variant.ID, a.Cycles, a.Score, b.Variant.ID, b.Cycles, b.Score)
		}
	}
	if r1.Winner.Variant.ID != rN.Winner.Variant.ID {
		t.Errorf("winner differs: 1 worker id %d, 8 workers id %d", r1.Winner.Variant.ID, rN.Winner.Variant.ID)
	}
	if r1.BaseCycles != rN.BaseCycles {
		t.Errorf("baseline differs: %d vs %d cycles", r1.BaseCycles, rN.BaseCycles)
	}
}

// TestTuneScoresAreDetailed: every ranked variant is measured once, and its
// cycles and score are those of full detailed runs — the variant's own run
// and the shared baseline's, each repeated here on an independent harness.
func TestTuneScoresAreDetailed(t *testing.T) {
	rep := runTune(t, &sim.Harness{Cache: sim.NewRunCache()})
	h := &sim.Harness{}
	base := tune.EvalRequest{Program: "tunetest", Source: twoLoopSrc, Baseline: true}
	jobs := []sim.Job{detailedJob(t, &base)}
	seen := make(map[int]bool)
	for _, s := range rep.Ranking {
		if seen[s.Variant.ID] {
			t.Fatalf("variant %d ranked twice", s.Variant.ID)
		}
		seen[s.Variant.ID] = true
		req := tune.EvalRequest{Program: "tunetest", Source: twoLoopSrc, Variant: s.Variant}
		jobs = append(jobs, detailedJob(t, &req))
	}
	if !seen[0] {
		t.Fatal("the anchor is not ranked")
	}
	if len(rep.Ranking)+len(rep.Pruned) != rep.SpaceSize {
		t.Fatalf("%d ranked + %d pruned != %d enumerated", len(rep.Ranking), len(rep.Pruned), rep.SpaceSize)
	}
	stats, errs := h.RunJobsCtx(context.Background(), jobs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("detailed run %d: %v", i, err)
		}
	}
	if rep.BaseCycles != stats[0].Cycles {
		t.Errorf("baseline: report %d cycles, detailed run %d", rep.BaseCycles, stats[0].Cycles)
	}
	for i, s := range rep.Ranking {
		want := stats[i+1].Cycles
		score := float64(stats[0].Cycles) / float64(want)
		if s.Err != "" || s.Cycles != want || s.Score != score {
			t.Errorf("#%d (%s): report %d cycles score %v err %q; detailed run %d cycles score %v",
				s.Variant.ID, s.Variant.Desc(), s.Cycles, s.Score, s.Err, want, score)
		}
	}
}

func detailedJob(t *testing.T, req *tune.EvalRequest) sim.Job {
	t.Helper()
	cfg, prog, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim.Job{Cfg: cfg, Prog: prog}
}

// TestRetuneCacheDedup is the run-cache dedup proof: re-tuning an unchanged
// program on the same harness executes zero new simulations — every
// detailed evaluation is served from the cache, so the misses counter does
// not move.
func TestRetuneCacheDedup(t *testing.T) {
	h := &sim.Harness{Cache: sim.NewRunCache()}
	r1 := runTune(t, h)
	misses := h.Cache.Misses()
	if misses == 0 {
		t.Fatal("first search executed no simulations — cache not wired through")
	}

	r2 := runTune(t, h)
	if d := h.Cache.Misses() - misses; d != 0 {
		t.Errorf("re-tuning an unchanged program executed %d new simulations, want 0", d)
	}
	if r2.Winner.Variant.ID != r1.Winner.Variant.ID || r2.Winner.Score != r1.Winner.Score {
		t.Errorf("re-tune winner differs: {id %d score %.6f} vs {id %d score %.6f}",
			r2.Winner.Variant.ID, r2.Winner.Score, r1.Winner.Variant.ID, r1.Winner.Score)
	}
	if len(r2.Ranking) != len(r1.Ranking) {
		t.Errorf("re-tune ranking length differs: %d vs %d", len(r2.Ranking), len(r1.Ranking))
	}
}
