package tune

import (
	"context"
	"fmt"
	"sync"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
)

// Tier is one fidelity rung of the successive-halving schedule.
type Tier struct {
	Name string `json:"name"`
	// Cost is the tier's price per evaluation, in rung-0-equivalent budget
	// units.
	Cost int `json:"cost"`
	// Sample is the sampled-simulation shape; nil means a full detailed run.
	Sample *sim.SampleConfig `json:"sample,omitempty"`
}

// Tiers returns the rung schedule: a short-window sampled sweep (windows
// cover a fifth of each interval), the accuracy-tuned default sampled
// configuration, and a full detailed run. Costs approximate the relative
// detailed-instruction volume of each tier.
func Tiers() []Tier {
	return []Tier{
		{Name: "cheap-sampled", Cost: 1,
			Sample: &sim.SampleConfig{Interval: 50_000, Window: 10_000, Warmup: 2_000}},
		{Name: "sampled", Cost: 4,
			Sample: &sim.SampleConfig{Interval: 50_000, Window: 50_000, Warmup: 10_000}},
		{Name: "detailed", Cost: 16},
	}
}

// EvalRequest is one rung evaluation: run one variant (or the shared
// hints-as-NOPs baseline) of a program at one tier. It is self-contained and
// JSON-serialisable — a stock worker recompiles the variant from source, so
// fabric fan-out ships specs, not images.
type EvalRequest struct {
	Program string  `json:"program"`
	Source  string  `json:"source"`
	Variant Variant `json:"variant"`
	Tier    int     `json:"tier"`
	// Baseline selects the shared control run: the static-default image on
	// the baseline core (hints as NOPs, one threadlet). Scores are
	// baseline-cycles / variant-cycles at the same tier.
	Baseline bool `json:"baseline,omitempty"`
}

// EvalResult is the outcome of one rung evaluation.
type EvalResult struct {
	// Cycles is the (estimated or exact) cycle count at the request's tier.
	Cycles float64 `json:"cycles"`
	// Insts is the architectural instruction count the cycles stand for.
	Insts uint64 `json:"insts"`
	// Fingerprint identifies the (config, image) pair — the run-cache
	// affinity key the fabric coordinator routes by.
	Fingerprint string `json:"fingerprint"`
	// CostUnits is the budget charged for this evaluation.
	CostUnits int `json:"cost_units"`
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
// identical variants and to route rung evaluations with cache affinity.
func (r *EvalRequest) Fingerprint() (string, error) {
	cfg, prog, err := r.Build()
	if err != nil {
		return "", err
	}
	return sim.Fingerprint(cfg, prog), nil
}

// Evaluator runs a batch of rung evaluations. Implementations: Local (the
// in-process harness) and the serve package's fabric evaluator (fan-out to
// lfservd workers with cache affinity). Result[i] pairs with reqs[i];
// errs[i] is non-nil when that evaluation failed.
type Evaluator interface {
	Evaluate(ctx context.Context, reqs []EvalRequest) ([]*EvalResult, []error)
}

// Local evaluates rung requests on an in-process harness. Sampled tiers fan
// their windows across the harness pool; detailed runs go through the
// harness run-cache, so identical variants and re-tuning runs dedupe.
type Local struct {
	H *sim.Harness
}

// Evaluate runs the batch. Requests run concurrently; each sampled run
// additionally fans its windows over the shared pool.
func (l Local) Evaluate(ctx context.Context, reqs []EvalRequest) ([]*EvalResult, []error) {
	h := l.H
	if h == nil {
		h = sim.DefaultHarness()
	}
	// Each sampled evaluation already fans out one job per window, so a
	// small multiplier keeps the pool saturated without stacking up
	// checkpoint memory.
	return FanOut(reqs, 4, func(req *EvalRequest) (*EvalResult, error) { return evalOne(ctx, h, req) })
}

// FanOut runs eval over every request concurrently, at most limit at a time,
// for the evaluators; results[i] and errs[i] pair with reqs[i].
func FanOut(reqs []EvalRequest, limit int, eval func(*EvalRequest) (*EvalResult, error)) ([]*EvalResult, []error) {
	results := make([]*EvalResult, len(reqs))
	errs := make([]error, len(reqs))
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = eval(&reqs[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

func evalOne(ctx context.Context, h *sim.Harness, req *EvalRequest) (*EvalResult, error) {
	cfg, prog, err := req.Build()
	if err != nil {
		return nil, err
	}
	tiers := Tiers()
	if req.Tier < 0 || req.Tier >= len(tiers) {
		return nil, fmt.Errorf("tune: tier %d out of range", req.Tier)
	}
	t := tiers[req.Tier]
	res := &EvalResult{
		Fingerprint: sim.Fingerprint(cfg, prog),
		CostUnits:   t.Cost,
	}
	if t.Sample != nil {
		st, err := h.RunSampledCtx(ctx, cfg, prog, *t.Sample, nil)
		if err != nil {
			return nil, err
		}
		// Whole cycles, as a sampled job result carries them, so the
		// fabric evaluator scores the same numbers.
		res.Cycles = float64(st.Cycles())
		res.Insts = st.TotalInsts
		return res, nil
	}
	stats, errs := h.RunJobsCtx(ctx, []sim.Job{{Cfg: cfg, Prog: prog}})
	if errs[0] != nil {
		return nil, errs[0]
	}
	res.Cycles = float64(stats[0].Cycles)
	res.Insts = stats[0].ArchInsts
	return res, nil
}
