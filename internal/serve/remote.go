package serve

// The remote-execution boundary between the serving front end and the
// distributed fabric. The server owns admission (validation, lint preflight,
// queues, SSE, drain); a RemoteExecutor — internal/fabric's Coordinator —
// owns placement (consistent-hash routing on the run-cache fingerprint),
// failure handling (health probing, retries, requeue on worker death),
// and returns the executing worker's terminal job view. The server
// keeps its local harness as the degradation path: a fabric that reports
// ErrRemoteUnavailable (no live workers at all) demotes the job to local
// single-node execution instead of failing it.

import (
	"context"
	"errors"
	"net/http"
)

// ErrRemoteUnavailable reports that the fabric has no live worker to place a
// job on. The server responds by running the job on its local harness — the
// coordinator degrades to a single-node daemon rather than failing traffic.
var ErrRemoteUnavailable = errors.New("serve: remote fabric unavailable")

// ErrWorkerLost reports that the worker executing a job died after the job
// had already been requeued once for an earlier worker death. The fabric
// requeues in-flight work exactly once; a second loss surfaces as this typed
// error instead of retrying forever.
var ErrWorkerLost = errors.New("serve: fabric worker lost after requeue")

// RemoteResult is a worker's terminal job view relayed by the fabric. A
// worker that executed the job and reported a job-level failure (deadline,
// panic, quarantine) still produces a RemoteResult — Status, HTTPStatus and
// Error mirror the worker's terminal state — so the coordinator's API answers
// exactly what a single-node daemon would have answered.
type RemoteResult struct {
	// Worker identifies the node that produced the terminal state.
	Worker string
	// Status is the terminal job status (done / failed / cancelled) and
	// HTTPStatus the terminal HTTP code the worker assigned.
	Status     string
	HTTPStatus int
	// Error carries the worker's error text for failed jobs.
	Error string
	// Result is the successful outcome (nil for failed jobs).
	Result *JobResult
}

// RemoteExecutor places one admitted job on the fabric. fingerprint is the
// job's run-cache fingerprint (sim.Fingerprint of the resolved program and
// canonicalised config): the routing key. Implementations must honour ctx —
// a cancelled submission must stop waiting and release any dispatched copies.
//
// Error contract: (nil, ErrRemoteUnavailable) demotes the job to local
// execution; (nil, ErrWorkerLost) is a terminal typed failure; a RemoteResult
// with a failure status is relayed verbatim.
type RemoteExecutor interface {
	ExecuteRemote(ctx context.Context, fingerprint string, spec JobSpec) (*RemoteResult, error)
}

// runRemote attempts remote placement of an admitted job. It reports true
// when the job reached a terminal state (success, relayed worker failure,
// cancellation, or typed fabric failure) and false when the fabric is
// unavailable and the caller should degrade to local execution.
func (s *Server) runRemote(j *job, spec JobSpec) bool {
	rr, err := s.cfg.Remote.ExecuteRemote(j.ctx, j.fingerprint, spec)
	switch {
	case err == nil:
		if rr.Result != nil {
			rr.Result.Worker = rr.Worker
		}
		status, httpStatus := rr.Status, rr.HTTPStatus
		if status == "" {
			status = StatusDone
		}
		if httpStatus == 0 {
			httpStatus = http.StatusOK
		}
		s.m.remoteJobs.Add(1)
		j.finish(status, httpStatus, rr.Result, rr.Error)
		return true
	case errors.Is(err, ErrRemoteUnavailable):
		return false
	case errors.Is(err, ErrWorkerLost):
		j.finish(StatusFailed, http.StatusInternalServerError, nil, err.Error())
		return true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status, httpStatus, text := classifyError(err)
		j.finish(status, httpStatus, nil, text)
		return true
	default:
		j.finish(StatusFailed, http.StatusBadGateway, nil, "fabric: "+err.Error())
		return true
	}
}
