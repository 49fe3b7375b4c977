package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/lint"
	"loopfrog/internal/report"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

// Job priorities. Interactive jobs win the runner's biased select; sweep
// jobs fill the remaining capacity.
const (
	PriorityInteractive = "interactive"
	PrioritySweep       = "sweep"
)

// Job kinds. A sim job runs one simulation of one image; a tune job runs the
// hint autotuner (internal/tune) over the submitted source, fanning its
// evaluations over the fabric when one is configured.
const (
	KindSim  = "sim"
	KindTune = "tune"
)

// AllowedKinds lists every job kind the daemon accepts, in the order the
// 400 reject for an unknown kind enumerates them.
func AllowedKinds() []string { return []string{KindSim, KindTune} }

// JobSpec is the POST /v1/jobs request body. Exactly one program source —
// asm, source, or bench — must be set.
type JobSpec struct {
	// Kind selects the job's engine: "sim" (default) runs one simulation,
	// "tune" runs the hint autotuner over the source. Unknown kinds
	// are rejected with 400 listing AllowedKinds.
	Kind string `json:"kind,omitempty"`
	// Name labels the job (defaults to the bench name or "submitted").
	Name string `json:"name,omitempty"`
	// Asm is LFISA assembly text (what lfsim accepts as a .s file).
	Asm string `json:"asm,omitempty"`
	// Source is LoopLang text (a .ll file), compiled with hint insertion.
	Source string `json:"source,omitempty"`
	// Bench names a built-in benchmark from the CPU2017/CPU2006 suites or
	// the seeded security suite.
	Bench string `json:"bench,omitempty"`

	// Threadlets configures the LoopFrog core (default 4); Baseline runs
	// hints-as-NOPs only; AB runs baseline and LoopFrog and reports the
	// speedup; NoPack disables iteration packing.
	Threadlets int  `json:"threadlets,omitempty"`
	NoPack     bool `json:"nopack,omitempty"`
	Baseline   bool `json:"baseline,omitempty"`
	AB         bool `json:"ab,omitempty"`
	// MaxCycles overrides the simulation cycle budget (0 = default).
	MaxCycles int64 `json:"max_cycles,omitempty"`

	// Faults is an internal/fault injection spec, seeded by Seed.
	Faults string `json:"faults,omitempty"`
	Seed   int64  `json:"seed,omitempty"`

	// Spectre tracks taint through transient execution and reports confirmed
	// speculative leaks in the result (metadata-only: timing is unchanged).
	// Mitigate enables the ShadowBinding-style defence, delaying dependents
	// of speculative loads until promotion. Both are incompatible with
	// Sampled: taint state cannot survive checkpoint seeding.
	Spectre  bool `json:"spectre,omitempty"`
	Mitigate bool `json:"mitigate,omitempty"`

	// Sampled runs the two-tier sampled estimate (tier-1 functional warming
	// plus detailed windows fanned over the pool) instead of a full detailed
	// run; the result carries estimated cycles. SampleInterval, SampleWindow
	// and SampleWarmup shape the run in instructions (0 = tuned defaults).
	// Incompatible with fault injection, which needs the detailed machine
	// over the whole run.
	Sampled        bool   `json:"sampled,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleWindow   uint64 `json:"sample_window,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`

	// Variant knobs (source jobs only): the tuner's fabric fan-out ships each
	// evaluation as a plain sim job carrying the variant to rebuild.
	// Deselect masks @loopfrog loops off by source line; PackFactor caps
	// epoch packing (1 disables it); GranuleBytes overrides the SSB conflict
	// granule; PackTarget overrides the packed-epoch target size.
	Deselect     []int `json:"deselect,omitempty"`
	PackFactor   int   `json:"pack_factor,omitempty"`
	GranuleBytes int   `json:"granule_bytes,omitempty"`
	PackTarget   int   `json:"pack_target,omitempty"`

	// MaxVariants caps a tune job's space after pruning (tune jobs only;
	// 0 = tune.DefaultMaxVariants).
	MaxVariants int `json:"max_variants,omitempty"`

	// TimeoutMS bounds the job's wall-clock time (capped by the server's
	// MaxTimeout; 0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority is "interactive" (default) or "sweep".
	Priority string `json:"priority,omitempty"`
	// Async makes the submission return 202 immediately; poll or stream
	// GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
}

// JobResult is the successful outcome of a job.
type JobResult struct {
	Program string `json:"program"`
	// Worker names the fabric node that executed the job; empty for local
	// execution (single-node daemons and fabric degradation). Together with
	// the view's fingerprint it makes routing decisions debuggable end to
	// end: the fingerprint says where the job should land, Worker says where
	// it did.
	Worker    string  `json:"worker,omitempty"`
	Cycles    int64   `json:"cycles"`
	ArchInsts uint64  `json:"arch_insts"`
	IPC       float64 `json:"ipc"`
	Spawns    uint64  `json:"spawns,omitempty"`
	Squashes  uint64  `json:"squashes,omitempty"`
	// AB mode only: both sides and the region speedup, baseline cycles /
	// loopfrog cycles (a sampled pair's estimated cycles, unrounded), as
	// lfsim -ab and lfreport print it.
	BaselineCycles int64   `json:"baseline_cycles,omitempty"`
	LoopFrogCycles int64   `json:"loopfrog_cycles,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	// Sampled mode only: cycles above are estimates; these report the
	// estimate's shape and cost, exactly what lfsim -sampled prints.
	Sampled       bool    `json:"sampled,omitempty"`
	Windows       int     `json:"windows,omitempty"`
	DetailedShare float64 `json:"detailed_share,omitempty"`
	Tier1IPS      float64 `json:"tier1_insts_per_sec,omitempty"`
	EffectiveIPS  float64 `json:"effective_insts_per_sec,omitempty"`
	// Spectre mode only: transient loads whose taint-derived address reached
	// the cache (candidates), how many were confirmed leaks by a squash, and
	// how many wakeups the mitigation held. Per-region leak counts ride in
	// each region row's ledger.
	LeakCandidates uint64 `json:"leak_candidates,omitempty"`
	Leaks          uint64 `json:"leaks,omitempty"`
	DelayedWakes   uint64 `json:"delayed_wakes,omitempty"`
	// Regions is the per-region speculation profile (the lfreport row
	// schema): every hinted loop's ledger joined with the preflight lint
	// report, ranked most-costly-first with a keep/retune/drop verdict.
	// Sampled jobs carry interval-weighted estimates. OutsideSlots is the
	// commit-slot attribution of the outside-any-region remainder.
	Regions      []report.Row      `json:"regions,omitempty"`
	OutsideSlots map[string]uint64 `json:"outside_slots,omitempty"`
	// Tune jobs only: the full search report — the ranking of every
	// evaluated variant, winner and static control arm. Cycles above echo
	// the winner's.
	Tune *tune.Report `json:"tune,omitempty"`
}

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// job is the server-side state of one submission.
type job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"-"`

	prog *asm.Program
	cfg  cpu.Config
	// lintRep is the admission preflight's report, kept so the result can
	// join static region provenance into the per-region profile.
	lintRep *lint.Report
	// fingerprint is the job's run-cache fingerprint (sim.Fingerprint of the
	// resolved program and canonicalised config): the fabric routing key,
	// surfaced in views and SSE events for end-to-end debuggability.
	fingerprint string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// machine holds the most recently observed live simulation, for
	// progress streaming; nil before the first attempt, on a cache hit and
	// once the job finished (a finished machine holds its whole heap, and the
	// job outlives it in the registry). Guarded by mu.
	machine *cpu.Machine

	mu         sync.Mutex
	status     string
	httpStatus int // terminal HTTP status for the sync path and async views
	errText    string
	result     *JobResult
	submitted  time.Time
	started    time.Time
	finishedAt time.Time
}

// view is the externally visible job state, safe to marshal.
type jobView struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Fingerprint is the run-cache fingerprint the fabric routes on,
	// reported from acceptance onward so a client can follow a job from
	// submission to the worker that served it.
	Fingerprint string     `json:"fingerprint,omitempty"`
	Status      string     `json:"status"`
	Priority    string     `json:"priority"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	QueuedMS    int64      `json:"queued_ms"`
	RunMS       int64      `json:"run_ms,omitempty"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:          j.ID,
		Name:        j.Spec.Name,
		Fingerprint: j.fingerprint,
		Status:      j.status,
		Priority:    j.Spec.Priority,
		Error:       j.errText,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		v.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		end := j.finishedAt
		if end.IsZero() {
			end = time.Now()
		}
		v.RunMS = end.Sub(j.started).Milliseconds()
	} else {
		v.QueuedMS = time.Since(j.submitted).Milliseconds()
	}
	return v
}

func (j *job) setStatus(status string) {
	j.mu.Lock()
	j.status = status
	if status == StatusRunning {
		j.started = time.Now()
	}
	j.mu.Unlock()
}

// finish records the terminal state exactly once and releases waiters.
func (j *job) finish(status string, httpStatus int, result *JobResult, errText string) {
	j.mu.Lock()
	if j.finishedLocked() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.httpStatus = httpStatus
	j.result = result
	j.errText = errText
	j.machine = nil
	j.finishedAt = time.Now()
	if j.started.IsZero() {
		j.started = j.finishedAt
	}
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// observe records m as the job's live machine unless the job already
// finished: a retry still starting after a timeout must not pin a machine to
// the finished job.
func (j *job) observe(m *cpu.Machine) {
	j.mu.Lock()
	if !j.finishedLocked() {
		j.machine = m
	}
	j.mu.Unlock()
}

// finishedLocked reports a terminal status; the caller holds mu.
func (j *job) finishedLocked() bool {
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled
}

// terminal returns the job's terminal HTTP status and view once finished.
func (j *job) terminal() (int, jobView) {
	j.mu.Lock()
	st := j.httpStatus
	j.mu.Unlock()
	return st, j.view()
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
	// Lint carries the full diagnostic report on 422 rejects.
	Lint *lint.Report `json:"lint,omitempty"`
}

// resolveProgram turns the spec's program source into an assembled image.
func resolveProgram(spec *JobSpec) (*asm.Program, error) {
	n := 0
	for _, set := range []bool{spec.Asm != "", spec.Source != "", spec.Bench != ""} {
		if set {
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("exactly one of asm, source, or bench must be set (got %d)", n)
	}
	switch {
	case spec.Bench != "":
		b := workloads.Find(spec.Bench)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", spec.Bench)
		}
		if spec.Name == "" {
			spec.Name = b.Name
		}
		return b.Program()
	case spec.Asm != "":
		if spec.Name == "" {
			spec.Name = "submitted"
		}
		return asm.Assemble(spec.Name, spec.Asm)
	default:
		if spec.Name == "" {
			spec.Name = "submitted"
		}
		v := spec.variant()
		prog, _, err := compiler.CompileOpts(spec.Name, spec.Source, v.CompilerOpts())
		return prog, err
	}
}

// variant reconstructs the spec's tune variant. The zero spec yields the
// static selection with default knobs untouched (hasVariant is false).
func (spec *JobSpec) variant() tune.Variant {
	return tune.Variant{
		Deselect:     spec.Deselect,
		PackFactor:   spec.PackFactor,
		GranuleBytes: spec.GranuleBytes,
		PackTarget:   spec.PackTarget,
	}
}

// hasVariant reports whether any tune-variant knob is set. The tuner always
// sets PackFactor explicitly (>= 1), so a fan-out spec always trips this.
func (spec *JobSpec) hasVariant() bool {
	return len(spec.Deselect) > 0 || spec.PackFactor != 0 ||
		spec.GranuleBytes != 0 || spec.PackTarget != 0
}

// validateSpec normalises and checks the submission-shaping fields.
func (s *Server) validateSpec(spec *JobSpec) error {
	switch spec.Kind {
	case "":
		spec.Kind = KindSim
	case KindSim, KindTune:
	default:
		quoted := make([]string, 0, len(AllowedKinds()))
		for _, k := range AllowedKinds() {
			quoted = append(quoted, fmt.Sprintf("%q", k))
		}
		return fmt.Errorf("unknown kind %q; allowed kinds: %s", spec.Kind, strings.Join(quoted, ", "))
	}
	if spec.Kind == KindTune {
		if err := normalizeTuneSpec(spec); err != nil {
			return err
		}
	} else if spec.MaxVariants != 0 {
		return fmt.Errorf("max_variants requires kind %q", KindTune)
	}
	if spec.hasVariant() {
		if spec.Kind != KindSim {
			return fmt.Errorf("variant knobs (deselect/pack_factor/granule_bytes/pack_target) apply to kind %q jobs only", KindSim)
		}
		if spec.Source == "" {
			return fmt.Errorf("variant knobs require source: the variant is rebuilt by recompilation")
		}
		if spec.PackFactor < 0 || spec.GranuleBytes < 0 || spec.PackTarget < 0 {
			return fmt.Errorf("variant knobs must be non-negative")
		}
		if spec.NoPack {
			return fmt.Errorf("nopack and pack_factor are mutually exclusive (pack_factor: 1 disables packing)")
		}
	}
	switch spec.Priority {
	case "":
		spec.Priority = PriorityInteractive
		if spec.Kind == KindTune {
			spec.Priority = PrioritySweep
		}
	case PriorityInteractive, PrioritySweep:
	default:
		return fmt.Errorf("priority must be %q or %q (got %q)", PriorityInteractive, PrioritySweep, spec.Priority)
	}
	if spec.Kind == KindTune && spec.Priority != PrioritySweep {
		return fmt.Errorf("tune jobs run on the sweep lane; priority must be %q or unset", PrioritySweep)
	}
	if spec.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative (got %d)", spec.TimeoutMS)
	}
	return spec.ValidateSim()
}

// normalizeTuneSpec checks the tune-specific surface and resolves a bench
// submission to its LoopLang source (the search recompiles per variant, so
// prebuilt-asm programs cannot be tuned).
func normalizeTuneSpec(spec *JobSpec) error {
	if spec.Asm != "" {
		return fmt.Errorf("tune jobs need source (or a source-backed bench): asm images cannot be recompiled per variant")
	}
	if spec.Bench != "" {
		if spec.Source != "" {
			return fmt.Errorf("exactly one of source or bench must be set for a tune job")
		}
		b := workloads.Find(spec.Bench)
		if b == nil {
			return fmt.Errorf("unknown benchmark %q", spec.Bench)
		}
		if b.Source() == "" {
			return fmt.Errorf("%s is a prebuilt asm workload; only LoopLang workloads can be retuned", spec.Bench)
		}
		if spec.Name == "" {
			spec.Name = b.Name
		}
		spec.Source, spec.Bench = b.Source(), ""
	}
	if spec.Source == "" {
		return fmt.Errorf("tune jobs need source (or a source-backed bench)")
	}
	if spec.Baseline || spec.AB {
		return fmt.Errorf("baseline/ab do not apply to tune jobs: the search scores variants against a shared hints-as-NOPs baseline")
	}
	if spec.Faults != "" || spec.Seed != 0 || spec.Spectre || spec.Mitigate {
		return fmt.Errorf("faults/seed/spectre/mitigate do not apply to tune jobs")
	}
	if spec.Sampled || spec.SampleInterval != 0 || spec.SampleWindow != 0 || spec.SampleWarmup != 0 {
		return fmt.Errorf("sampled knobs do not apply to tune jobs: the search measures every variant with a detailed run")
	}
	if spec.hasVariant() {
		return fmt.Errorf("variant knobs do not apply to tune jobs: the search enumerates variants itself")
	}
	if spec.MaxVariants < 0 {
		return fmt.Errorf("max_variants must be non-negative")
	}
	return nil
}

// timeoutFor clamps the requested timeout to the server's policy.
func (s *Server) timeoutFor(spec *JobSpec) time.Duration {
	d := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		d = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// run executes one admitted job — on the fabric when one is configured,
// otherwise (or when it has no live worker) on the local harness through
// Execute — and records its terminal state.
func (s *Server) run(j *job) {
	if err := j.ctx.Err(); err != nil {
		j.finish(StatusCancelled, statusClientClosed, nil, "cancelled before start: "+err.Error())
		return
	}
	j.setStatus(StatusRunning)
	timeout := s.timeoutFor(&j.Spec)
	if j.Spec.Kind == KindTune {
		// Tune jobs never forward whole: the coordinator owns the search and
		// fans individual evaluations over the fabric (or the local
		// harness) instead.
		s.runTune(j, timeout)
		return
	}
	if s.cfg.Remote != nil {
		// Remote placement first. The forwarded spec is always synchronous
		// (async is a coordinator-side concern) and carries the resolved
		// timeout so the worker enforces the same deadline the coordinator
		// promised. A fabric with no live workers degrades the job to the
		// local harness below.
		spec := j.Spec
		spec.Async = false
		if spec.TimeoutMS <= 0 {
			spec.TimeoutMS = timeout.Milliseconds()
		}
		if s.runRemote(j, spec) {
			return
		}
		s.m.degraded.Add(1)
	}
	out, err := Execute(j.ctx, s.harness, &j.Spec, Exec{
		Prog: j.prog, Cfg: j.cfg, Lint: j.lintRep, Timeout: timeout, Observe: j.observe,
	})
	if err != nil {
		status, httpStatus, text := classifyError(err)
		j.finish(status, httpStatus, nil, text)
		return
	}
	j.finish(StatusDone, http.StatusOK, out.Result, "")
}

// statusClientClosed mirrors nginx's 499: the client abandoned the request.
const statusClientClosed = 499

// classifyError maps a harness error onto the job's terminal state. The
// mapping is part of the API: deadline → 504, cancellation → 499, panic or
// quarantine → 500, anything else (watchdog trips, cycle limit, memory
// faults) → 500 with the error text.
func classifyError(err error) (status string, httpStatus int, text string) {
	var pe *sim.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return StatusFailed, http.StatusGatewayTimeout, err.Error()
	case errors.Is(err, context.Canceled):
		return StatusCancelled, statusClientClosed, err.Error()
	case errors.Is(err, sim.ErrQuarantined):
		return StatusFailed, http.StatusInternalServerError, err.Error()
	case errors.As(err, &pe):
		// The stack has been captured server-side; clients get one line.
		line := fmt.Sprintf("sim: worker panic: %v (stack retained server-side, job quarantined on repeat)", pe.Value)
		return StatusFailed, http.StatusInternalServerError, line
	default:
		return StatusFailed, http.StatusInternalServerError, err.Error()
	}
}

// progress is one SSE progress sample read from the live machine snapshot.
// Remote jobs have no local machine, so their samples carry status and
// fingerprint only, as do tune jobs.
type progress struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Cycles      int64  `json:"cycles"`
	ArchInsts   uint64 `json:"arch_insts"`
	Spawns      uint64 `json:"spawns"`
	Retires     uint64 `json:"retires"`
	Squashes    uint64 `json:"squashes"`
}

// sampleProgress reads the job's live machine, if any. Status and machine
// are read together, so a sample is either running with the live counters or
// terminal with none; the terminal counters are in the job's result.
func (j *job) sampleProgress() progress {
	j.mu.Lock()
	p := progress{Status: j.status, Fingerprint: j.fingerprint}
	m := j.machine
	j.mu.Unlock()
	if m != nil {
		snap := m.SnapshotStats()
		p.Cycles = snap.CPU.Cycles
		p.ArchInsts = snap.CPU.ArchInsts
		p.Spawns = snap.CPU.Spawns
		p.Retires = snap.CPU.Retires
		for _, n := range snap.CPU.Squashes {
			p.Squashes += n
		}
	}
	return p
}

// truncatedName shortens a submitted program name for logs and views.
func truncatedName(name string) string {
	name = strings.TrimSpace(name)
	if len(name) > 64 {
		return name[:64]
	}
	return name
}
