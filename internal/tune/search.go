package tune

import (
	"context"
	"fmt"
	"sort"

	"loopfrog/internal/compiler"
)

// Scored is one evaluated variant. Score is baseline-cycles / variant-cycles
// from full detailed runs, so > 1 means faster than the hints-as-NOPs core
// and the anchor's score is the static selection's speedup.
type Scored struct {
	Variant Variant `json:"variant"`
	Cycles  int64   `json:"cycles"`
	Score   float64 `json:"score"`
	// Fingerprint is the run-cache identity of the (config, image) pair.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Err records an evaluation failure; failed variants rank last.
	Err string `json:"err,omitempty"`
}

// Report is the outcome of one search.
type Report struct {
	Program string `json:"program"`
	// Loops is the static selection's view of the program's @loopfrog sites.
	Loops []compiler.LoopSite `json:"loops"`
	// SpaceSize counts enumerated variants before pruning and dedup.
	SpaceSize int      `json:"space_size"`
	Pruned    []Pruned `json:"pruned,omitempty"`
	// BaseCycles is the shared hints-as-NOPs baseline's cycles.
	BaseCycles int64 `json:"base_cycles"`
	// Ranking holds every evaluated variant once, best score first, ties by
	// variant ID. Identical for any harness worker count.
	Ranking []Scored `json:"ranking"`
	Winner  Scored   `json:"winner"`
	// Static is the anchor variant's measurement — the compiler's static
	// selection under default knobs, the search's control arm.
	Static Scored `json:"static"`
}

// WinnerBeatsStatic reports whether the search found a variant strictly
// better than the static selection.
func (r *Report) WinnerBeatsStatic() bool {
	return r.Winner.Score > r.Static.Score
}

// Tune enumerates, prunes and dedupes the variant space, then measures the
// shared baseline and every candidate in one Evaluate batch.
func Tune(ctx context.Context, spec Spec, ev Evaluator) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	notes, sites, err := lintNotes(spec)
	if err != nil {
		return nil, err
	}
	vars := enumerate(spec, sites)
	rep := &Report{
		Program:   spec.Program,
		Loops:     sites,
		SpaceSize: len(vars),
	}
	cands, pruned := prune(vars, notes)
	cands, dups, err := dedupe(spec, cands)
	if err != nil {
		return nil, err
	}
	rep.Pruned = append(pruned, dups...)
	if len(cands) > spec.MaxVariants {
		for _, v := range cands[spec.MaxVariants:] {
			rep.Pruned = append(rep.Pruned, Pruned{Variant: v, Rule: "space cap: beyond max_variants"})
		}
		cands = cands[:spec.MaxVariants]
	}

	reqs := make([]EvalRequest, 0, len(cands)+1)
	reqs = append(reqs, EvalRequest{Program: spec.Program, Source: spec.Source, Baseline: true})
	for _, v := range cands {
		reqs = append(reqs, EvalRequest{Program: spec.Program, Source: spec.Source, Variant: v})
	}
	results, errs := ev.Evaluate(ctx, reqs)
	if errs[0] != nil {
		return nil, fmt.Errorf("tune: baseline: %w", errs[0])
	}
	rep.BaseCycles = results[0].Cycles
	for i, v := range cands {
		s := Scored{Variant: v}
		if err := errs[i+1]; err != nil {
			if v.ID == 0 {
				return nil, fmt.Errorf("tune: anchor variant failed: %w", err)
			}
			s.Err = err.Error()
		} else {
			r := results[i+1]
			s.Cycles = r.Cycles
			s.Fingerprint = r.Fingerprint
			if r.Cycles > 0 {
				s.Score = float64(rep.BaseCycles) / float64(r.Cycles)
			}
		}
		if v.ID == 0 {
			rep.Static = s // the anchor is never pruned, deduped away or capped
		}
		rep.Ranking = append(rep.Ranking, s)
	}
	sortScored(rep.Ranking)
	rep.Winner = rep.Ranking[0]
	return rep, nil
}

// dedupe collapses variants whose (config, image) fingerprints coincide —
// e.g. masks that only differ on statically de-selected loops. The
// lowest-ID variant of each group is kept; the run-cache would deduplicate
// their simulations anyway, but collapsing them up front keeps the ranking
// free of repeats.
func dedupe(spec Spec, vars []Variant) (kept []Variant, dups []Pruned, err error) {
	seen := make(map[string]int)
	for _, v := range vars {
		req := EvalRequest{Program: spec.Program, Source: spec.Source, Variant: v}
		fp, ferr := req.Fingerprint()
		if ferr != nil {
			return nil, nil, ferr
		}
		if first, ok := seen[fp]; ok {
			dups = append(dups, Pruned{
				Variant: v,
				Rule:    fmt.Sprintf("duplicate: fingerprint %s equals variant %d", fp, first),
			})
			continue
		}
		seen[fp] = v.ID
		kept = append(kept, v)
	}
	return kept, dups, nil
}

// sortScored orders by score descending, errors last, ties by variant ID.
func sortScored(s []Scored) {
	sort.SliceStable(s, func(i, j int) bool {
		a, b := &s[i], &s[j]
		if (a.Err == "") != (b.Err == "") {
			return a.Err == ""
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Variant.ID < b.Variant.ID
	})
}
