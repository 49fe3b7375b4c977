package serve

// The tune job kind: the hint autotuner (internal/tune) running server-side.
// The daemon owns admission exactly as for sim jobs — validated spec, lint
// preflight on the static image, sweep-lane queueing — and the search runs
// inside one runner slot, fanning its detailed evaluations onto the local
// harness or, when a fabric is configured, across the worker fleet as plain
// sim jobs routed with run-cache affinity.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"loopfrog/internal/tune"
)

// handleTune is POST /v1/tune: sugar for POST /v1/jobs with kind "tune".
// The body is a JobSpec; a kind other than "tune" is rejected.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	if spec.Kind != "" && spec.Kind != KindTune {
		writeJSON(w, http.StatusBadRequest, apiError{
			Error: fmt.Sprintf("kind must be %q (or unset) on /v1/tune (got %q)", KindTune, spec.Kind),
		})
		return
	}
	spec.Kind = KindTune
	s.admit(w, r, spec)
}

// runTune executes one admitted tune job: build the search spec, pick the
// evaluator (fabric fan-out when a remote executor is configured, the local
// harness otherwise), and run the search to completion.
func (s *Server) runTune(j *job, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()
	spec := tune.Spec{
		Program:     j.Spec.Name,
		Source:      j.Spec.Source,
		MaxVariants: j.Spec.MaxVariants,
	}
	var ev tune.Evaluator = tune.Local{H: s.harness}
	if s.cfg.Remote != nil {
		ev = &fabricEvaluator{s: s, timeout: timeout}
	}
	rep, err := tune.Tune(ctx, spec, ev)
	if err != nil {
		status, httpStatus, text := classifyError(err)
		j.finish(status, httpStatus, nil, text)
		return
	}
	res := &JobResult{Program: rep.Program, Tune: rep, Cycles: rep.Winner.Cycles}
	j.finish(StatusDone, http.StatusOK, res, "")
}

// fabricEvaluator fans evaluations over the worker fleet. Each request
// becomes a plain synchronous sim job carrying the variant knobs; the
// coordinator routes it by the same run-cache fingerprint the worker's
// harness will key on, so repeat evaluations of a variant land where their
// result is already resident. A fabric with no live workers degrades the
// evaluation to the local harness, mirroring the sim-job path.
type fabricEvaluator struct {
	s       *Server
	timeout time.Duration
}

func (f *fabricEvaluator) Evaluate(ctx context.Context, reqs []tune.EvalRequest) ([]*tune.EvalResult, []error) {
	// The fabric's per-worker slots provide the real backpressure; this
	// bound only caps coordinator memory.
	results := make([]*tune.EvalResult, len(reqs))
	errs := make([]error, len(reqs))
	sem := make(chan struct{}, 32)
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = f.evalOne(ctx, &reqs[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

func (f *fabricEvaluator) evalOne(ctx context.Context, req *tune.EvalRequest) (*tune.EvalResult, error) {
	fp, err := req.Fingerprint()
	if err != nil {
		return nil, err
	}
	rr, err := f.s.cfg.Remote.ExecuteRemote(ctx, fp, evalJobSpec(req, f.timeout))
	if err != nil {
		if errors.Is(err, ErrRemoteUnavailable) {
			f.s.m.degraded.Add(1)
			res, lerrs := tune.Local{H: f.s.harness}.Evaluate(ctx, []tune.EvalRequest{*req})
			return res[0], lerrs[0]
		}
		return nil, err
	}
	if rr.Status != "" && rr.Status != StatusDone {
		return nil, fmt.Errorf("tune: worker %s: %s: %s", rr.Worker, rr.Status, rr.Error)
	}
	if rr.Result == nil {
		return nil, fmt.Errorf("tune: worker %s returned no result", rr.Worker)
	}
	return &tune.EvalResult{
		Cycles:      rr.Result.Cycles,
		Insts:       rr.Result.ArchInsts,
		Fingerprint: fp,
	}, nil
}

// evalJobSpec renders one evaluation as the sim-job spec a stock worker
// executes: the source plus the variant knobs to rebuild the image.
func evalJobSpec(req *tune.EvalRequest, timeout time.Duration) JobSpec {
	spec := JobSpec{
		Kind:      KindSim,
		Name:      req.Program,
		Source:    req.Source,
		Priority:  PrioritySweep,
		TimeoutMS: timeout.Milliseconds(),
	}
	if req.Baseline {
		spec.Baseline = true
	} else {
		spec.Deselect = req.Variant.Deselect
		spec.PackFactor = req.Variant.PackFactor
		spec.GranuleBytes = req.Variant.GranuleBytes
		spec.PackTarget = req.Variant.PackTarget
	}
	return spec
}
