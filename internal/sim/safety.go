package sim

// Crash-proofing for the evaluation harness. A simulation worker must never
// take a sweep down: panics out of the machine (model bugs, injected chaos
// panics) are recovered into per-job PanicErrors, panicking jobs are retried
// once and quarantined on a repeat offence, and per-job wall-clock deadlines
// are enforced through the machine's context support. The rest of a sweep
// always completes and reports per-job errors (RunJobsCtx).

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"loopfrog/internal/cpu"
	"loopfrog/internal/fault"
)

// PanicError is a panic recovered from a simulation worker: the panic value
// plus the goroutine stack captured at the recovery point. The harness
// converts worker panics into per-job errors so one crashing job cannot take
// down a whole sweep.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: worker panic: %v\n%s", e.Value, e.Stack)
}

// ErrQuarantined marks a job whose key panicked on both its first run and its
// retry: the harness refuses to execute it again for the harness's lifetime.
var ErrQuarantined = errors.New("sim: job quarantined after repeated panics")

// isPanic reports whether err is (or wraps) a recovered worker panic.
func isPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// execute runs one job with the crash-proofing policy: recover panics into
// errors, retry a panicking job once (panics can be order-dependent under a
// parallel sweep), and quarantine the key if the deterministic re-run panics
// too. key is the job's cache key, shared with the quarantine set.
func (h *Harness) execute(ctx context.Context, key string, j Job) (*cpu.Stats, error) {
	st, err := h.attempt(ctx, j)
	if !isPanic(err) {
		return st, err
	}
	h.panics.Add(1)
	h.retries.Add(1)
	st, err = h.attempt(ctx, j)
	if isPanic(err) {
		h.panics.Add(1)
		h.quarantines.Add(1)
		h.quarantined.Store(key, struct{}{})
	}
	return st, err
}

// attempt is one guarded simulation: machine construction, optional fault
// plan, the caller's context merged with the optional per-job deadline. It
// never panics; a panic anywhere inside the machine surfaces as a
// *PanicError.
func (h *Harness) attempt(ctx context.Context, j Job) (st *cpu.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	var m *cpu.Machine
	if j.Ckpt != nil {
		m, err = cpu.NewMachineFromCheckpoint(j.Cfg, j.Prog, j.Ckpt)
	} else {
		m, err = cpu.NewMachine(j.Cfg, j.Prog)
	}
	if err != nil {
		return nil, err
	}
	if j.Faults != "" {
		plan, perr := fault.Parse(j.Faults, j.Seed)
		if perr != nil {
			return nil, perr
		}
		if plan != nil {
			m.SetFaultInjector(plan)
		}
	}
	if j.Observe != nil {
		j.Observe(m)
	}
	runCtx := ctx
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}
	st, err = m.RunContext(runCtx)
	// Only the statistics are wanted now: the next machine reuses this
	// one's window, predictor tables and cache set tables.
	m.Recycle()
	// A deadline expiry is the job's own timeout only when the caller's
	// context is still live — a cancelled or expired caller context is a
	// cancellation, reported as such.
	if errors.Is(err, context.DeadlineExceeded) && j.Timeout > 0 && ctx.Err() == nil {
		h.timeouts.Add(1)
		err = fmt.Errorf("sim: job deadline (%v) exceeded: %w", j.Timeout, err)
	}
	return st, err
}

// jobKey extends the run-cache key with the job's fault plan and sampled-run
// identity: an injected run and a clean run of the same (config, program) are
// different simulations and must never share a cache slot, and a sampled
// window seeded from a checkpoint must never share one with a cold-boot run.
// The window's own shape (Config.MaxArchInsts, Config.WarmupInsts) is already
// part of CacheKey through the config rendering; the checkpoint contributes
// its position and which warm state it carries — tier-1 state at instruction
// K is deterministic given the program and the warming configuration (both
// already in the key), so position-plus-shape identifies it completely.
// Timeout is deliberately excluded — a deadline changes whether a job
// completes, never its result, and failed runs are not cached anyway.
func jobKey(j Job) string {
	key := CacheKey(j.Cfg, j.Prog)
	if j.Faults != "" && j.Faults != "none" {
		key += fmt.Sprintf("|faults=%s|seed=%d", j.Faults, j.Seed)
	}
	if j.Ckpt != nil {
		key += fmt.Sprintf("|ckpt=%d,bp=%t,hier=%t,lf=%t,region=%d",
			j.Ckpt.Insts, j.Ckpt.BP != nil, j.Ckpt.Hier != nil,
			j.Ckpt.Mon != nil || j.Ckpt.Pack != nil, j.Ckpt.Region)
	}
	return key
}
