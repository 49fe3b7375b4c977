package tune

import (
	"context"
	"fmt"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
)

// Tier is a sampled-simulation shape.
type Tier struct {
	Sample *sim.SampleConfig
}

// Tiers returns the short-window sampled shape (windows cover a fifth of each
// interval) that the search once used as its cheapest rung. The search now
// measures every variant with a full detailed run and calls nothing here;
// the function stays because perfbench reads Tiers()[0].Sample as its
// sampled workload's shape, and goes once perfbench names that shape itself.
func Tiers() []Tier {
	return []Tier{{Sample: &sim.SampleConfig{Interval: 50_000, Window: 10_000, Warmup: 2_000}}}
}

// EvalRequest is one evaluation: a full detailed run of one variant (or of
// the shared hints-as-NOPs baseline) of a program. It is self-contained and
// JSON-serialisable — a stock worker recompiles the variant from source, so
// fabric fan-out ships specs, not images.
type EvalRequest struct {
	Program string  `json:"program"`
	Source  string  `json:"source"`
	Variant Variant `json:"variant"`
	// Baseline selects the shared control run: the static-default image on
	// the baseline core (hints as NOPs, one threadlet). Scores are
	// baseline-cycles / variant-cycles.
	Baseline bool `json:"baseline,omitempty"`
}

// EvalResult is the outcome of one evaluation.
type EvalResult struct {
	Cycles int64 `json:"cycles"`
	// Insts is the architectural instruction count the cycles stand for.
	Insts uint64 `json:"insts"`
	// Fingerprint identifies the (config, image) pair — the run-cache
	// affinity key the fabric coordinator routes by.
	Fingerprint string `json:"fingerprint"`
}

// Build compiles the request's variant and resolves its core configuration.
func (r *EvalRequest) Build() (cpu.Config, *asm.Program, error) {
	cfg := r.Variant.Config(cpu.DefaultConfig())
	opts := r.Variant.CompilerOpts()
	if r.Baseline {
		cfg = sim.BaselineOf(cpu.DefaultConfig())
		opts = compiler.Options{}
	}
	prog, _, err := compiler.CompileOpts(r.Program, r.Source, opts)
	if err != nil {
		return cpu.Config{}, nil, fmt.Errorf("tune: compile %s (%s): %w", r.Program, r.Variant.Desc(), err)
	}
	return cfg, prog, nil
}

// Fingerprint computes the run-cache fingerprint of the request's (config,
// image) pair without running anything: the coordinator uses it to dedupe
// identical variants and to route evaluations with cache affinity.
func (r *EvalRequest) Fingerprint() (string, error) {
	cfg, prog, err := r.Build()
	if err != nil {
		return "", err
	}
	return sim.Fingerprint(cfg, prog), nil
}

// Evaluator runs a batch of evaluations. Implementations: Local (the
// in-process harness) and the serve package's fabric evaluator (fan-out to
// lfservd workers with cache affinity). Result[i] pairs with reqs[i];
// errs[i] is non-nil when that evaluation failed.
type Evaluator interface {
	Evaluate(ctx context.Context, reqs []EvalRequest) ([]*EvalResult, []error)
}

// Local evaluates requests on an in-process harness: one batch over the
// harness pool, through its run-cache, so identical variants and re-tuning
// runs dedupe.
type Local struct {
	H *sim.Harness // required
}

// Evaluate runs the batch.
func (l Local) Evaluate(ctx context.Context, reqs []EvalRequest) ([]*EvalResult, []error) {
	results := make([]*EvalResult, len(reqs))
	errs := make([]error, len(reqs))
	jobs := make([]sim.Job, 0, len(reqs))
	idx := make([]int, 0, len(reqs)) // jobs[k] runs reqs[idx[k]]
	for i := range reqs {
		cfg, prog, err := reqs[i].Build()
		if err != nil {
			errs[i] = err
			continue
		}
		results[i] = &EvalResult{Fingerprint: sim.Fingerprint(cfg, prog)}
		jobs = append(jobs, sim.Job{Cfg: cfg, Prog: prog})
		idx = append(idx, i)
	}
	stats, jerrs := l.H.RunJobsCtx(ctx, jobs)
	for k, i := range idx {
		if jerrs[k] != nil {
			results[i], errs[i] = nil, jerrs[k]
			continue
		}
		results[i].Cycles = stats[k].Cycles
		results[i].Insts = stats[k].ArchInsts
	}
	return results, errs
}
