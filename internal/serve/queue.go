package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/lint"
	"loopfrog/internal/sim"
)

// handleSubmit admits one job: decode → validate → resolve program → lint
// preflight → lane enqueue. Sync submissions wait for the terminal state;
// async submissions return 202 with a Location to poll or stream.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	s.admit(w, r, spec)
}

// decodeSpec reads and decodes one JobSpec body, answering the error itself
// when the body is unreadable or the server is draining.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
		return JobSpec{}, false
	}
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, apiError{Error: "bad request body: " + err.Error()})
		return JobSpec{}, false
	}
	return spec, true
}

// admit validates, preflights, and enqueues one decoded submission.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, spec JobSpec) {
	spec.Name = truncatedName(spec.Name)
	if err := s.validateSpec(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	prog, err := resolveProgram(&spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	cfg, err := spec.MachineConfig()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	// Mandatory admission gate: a program that fails hint-legality preflight
	// is never simulated. 422 carries the full diagnostic report. Admitted
	// jobs keep the report: its static region table (provenance, body shape)
	// is joined into the result's per-region profile.
	rep, perr := lint.Preflight(prog)
	if perr != nil {
		s.m.lintRejects.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: perr.Error(), Lint: rep})
		return
	}

	j := s.newJob(spec, prog, cfg, rep)
	lane := s.interactive
	if spec.Priority == PrioritySweep {
		lane = s.sweep
	}
	select {
	case lane <- j:
		s.m.admitted.Add(1)
	default:
		// Lane full: reject with backpressure advice, forget the job.
		s.m.rejected.Add(1)
		s.forgetJob(j.ID)
		j.cancel()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error: fmt.Sprintf("%s queue full (%d deep); retry later", spec.Priority, s.cfg.QueueDepth),
		})
		return
	}

	if spec.Async {
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}

	// Sync path: wait for the job or the client. A disconnect cancels the
	// job so the harness slot frees up (guaranteed by RunJobsCtx).
	select {
	case <-j.done:
		status, v := j.terminal()
		writeJSON(w, status, v)
	case <-r.Context().Done():
		j.cancel()
		<-j.done // runner observes the cancel promptly; wait for the record
	}
}

// newJob registers a fresh job in the queued state.
func (s *Server) newJob(spec JobSpec, prog *asm.Program, cfg cpu.Config, lintRep *lint.Report) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		ID:          fmt.Sprintf("job-%08d", s.seq.Add(1)),
		Spec:        spec,
		prog:        prog,
		cfg:         cfg,
		lintRep:     lintRep,
		fingerprint: sim.Fingerprint(cfg, prog),
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		status:      StatusQueued,
	}
	j.submitted = time.Now()
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	return j
}

// lookupJob returns the job by ID, or nil.
func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// forgetJob drops a job from the registry (rejected admissions).
func (s *Server) forgetJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// retireJob moves a finished job into the bounded retention FIFO.
func (s *Server) retireJob(j *job) {
	s.mu.Lock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// runnerLoop pulls admitted jobs with a biased select — interactive work is
// always preferred when both lanes have entries — and executes them.
func (s *Server) runnerLoop() {
	defer s.runnerWG.Done()
	for {
		// Bias: drain interactive first.
		select {
		case <-s.stop:
			return
		case j := <-s.interactive:
			s.runOne(j)
			continue
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.interactive:
			s.runOne(j)
		case j := <-s.sweep:
			s.runOne(j)
		}
	}
}

// runOne wraps a job execution with inflight accounting and latency capture.
func (s *Server) runOne(j *job) {
	s.m.inflight.Add(1)
	start := time.Now()
	s.run(j)
	s.m.observeLatency(time.Since(start))
	s.m.inflight.Add(-1)
	s.retireJob(j)
}
