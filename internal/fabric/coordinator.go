package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/serve"
)

// Config tunes the coordinator. The zero value takes every documented
// default, so NewCoordinator(Config{}) is a working production fabric.
type Config struct {
	// ProbeInterval is the readiness-probe period per worker (default 500ms)
	// and the failure detector's unit of silence; ProbeTimeout bounds one
	// probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// WrapTransport, when non-nil, wraps each member's HTTP transport — the
	// chaos fabric's injection point. base is never nil.
	WrapTransport func(workerID string, base http.RoundTripper) http.RoundTripper

	// Logf sinks coordinator logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

const (
	// maxDispatchRetries bounds transport-level retries per job;
	// retryBaseDelay seeds the exponential backoff between them, capped at
	// retryMaxDelay. Each delay carries ±50% jitter so a rack of retries does
	// not stampede the surviving workers.
	maxDispatchRetries = 3
	retryBaseDelay     = 50 * time.Millisecond
	retryMaxDelay      = 2 * time.Second

	// requestGrace pads a dispatched job's HTTP deadline beyond the job's own
	// timeout, so the worker's 504 arrives before the coordinator gives up on
	// the connection.
	requestGrace = 30 * time.Second
)

// Coordinator places admitted jobs on the worker fleet. It implements
// serve.RemoteExecutor; see the package comment for the full design.
type Coordinator struct {
	cfg  Config
	ring *Ring

	// mu guards the member table, each member's url, inflight set and
	// waiting count, and the quarantine set. cond is broadcast whenever a
	// waiting job's pick may have changed: a slot frees, a member joins or
	// changes state, a waiter's ctx ends, or the coordinator closes.
	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	members map[string]*member
	// quarantined holds (worker, fingerprint) pairs that answered with a
	// panic; placement skips them permanently.
	quarantined map[string]struct{}

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	m fabricMetrics
}

type fabricMetrics struct {
	jobs         atomic.Uint64
	dispatches   atomic.Uint64
	retries      atomic.Uint64
	reroutes     atomic.Uint64
	requeues     atomic.Uint64
	workersDead  atomic.Uint64
	pairsBlocked atomic.Uint64
	degradations atomic.Uint64
}

// member is one registered worker.
type member struct {
	id     string
	url    string
	client *http.Client
	slots  int
	det    *Detector
	// inflight holds the member's running dispatches, one per busy slot; on
	// death the coordinator marks them lost and cancels them.
	inflight map[*dispatch]struct{}
	// waiting counts jobs parked until one of the member's slots frees.
	waiting int
	joined  time.Time
}

// dispatch is one post of a job to a worker, holding one of the worker's
// slots. lost is set under Coordinator.mu by the death path before it
// cancels the post, so the job's goroutine knows to spend its requeue budget
// instead of a retry.
type dispatch struct {
	m      *member
	url    string // m.url when the slot was taken
	ctx    context.Context
	cancel context.CancelFunc
	lost   bool
}

// NewCoordinator returns a coordinator with no workers. Workers register via
// AddWorker (static -workers list) or the /fabric/join handler.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:         cfg.withDefaults(),
		ring:        NewRing(),
		members:     make(map[string]*member),
		quarantined: make(map[string]struct{}),
		stopc:       make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// AddWorker registers (or re-registers) a worker and starts its prober.
// Re-joins with an unchanged URL are heartbeats; a changed URL re-points the
// member without restarting its prober.
func (c *Coordinator) AddWorker(info JoinInfo) error {
	if err := info.validate(); err != nil {
		return err
	}
	slots := info.Runners
	if slots <= 0 {
		slots = 4
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("fabric: coordinator closed")
	}
	if m, ok := c.members[info.ID]; ok {
		m.url = info.URL
		c.mu.Unlock()
		return nil
	}
	base := http.DefaultTransport
	if c.cfg.WrapTransport != nil {
		base = c.cfg.WrapTransport(info.ID, base)
	}
	m := &member{
		id:       info.ID,
		url:      info.URL,
		client:   &http.Client{Transport: base},
		slots:    slots,
		det:      NewDetector(c.cfg.ProbeInterval, time.Now()),
		inflight: make(map[*dispatch]struct{}),
		joined:   time.Now(),
	}
	c.members[info.ID] = m
	c.ring.Add(m.id)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.cfg.Logf("fabric: worker %s joined at %s (%d slots)", m.id, info.URL, slots)
	c.wg.Add(1)
	go c.probeLoop(m)
	return nil
}

// Close stops the probers and fails waiting and in-flight work with
// serve.ErrRemoteUnavailable so no ExecuteRemote caller hangs. Call after
// the front-end server has drained.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.stopOnce.Do(func() { close(c.stopc) })
	for _, m := range c.members {
		for d := range m.inflight {
			d.cancel()
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// ExecuteRemote implements serve.RemoteExecutor. The caller's goroutine owns
// the job from start to finish: pick a worker, wait for one of its slots,
// post, classify the answer, and loop on a retry, reroute or requeue. See
// remote.go in internal/serve for the error contract.
func (c *Coordinator) ExecuteRemote(ctx context.Context, fingerprint string, spec serve.JobSpec) (*serve.RemoteResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("fabric: marshal spec: %w", err)
	}
	timeout := time.Duration(spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Minute
	}
	c.m.jobs.Add(1)
	rr, err := c.run(ctx, fingerprint, body, timeout)
	if errors.Is(err, serve.ErrRemoteUnavailable) {
		c.m.degradations.Add(1)
	}
	return rr, err
}

// run is ExecuteRemote's dispatch loop. A success or a job-level failure is
// relayed; a panic answer quarantines the (worker, key) pair and reroutes
// once; transport failures back off with jitter and reroute up to
// maxDispatchRetries before the job degrades to local execution; a dispatch
// cut off by its worker's death is requeued exactly once.
func (c *Coordinator) run(ctx context.Context, key string, body []byte, timeout time.Duration) (*serve.RemoteResult, error) {
	// Wake the wait in acquire when the job's ctx ends.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	exclude := ""
	attempts, panicHop, requeued := 0, false, false
	var lastErr error
	for {
		d, err := c.acquire(ctx, key, exclude)
		if err != nil {
			if errors.Is(err, serve.ErrRemoteUnavailable) && lastErr != nil {
				err = fmt.Errorf("%w: %v", serve.ErrRemoteUnavailable, lastErr)
			}
			return nil, err
		}
		c.m.dispatches.Add(1)
		m := d.m
		rr, derr := c.postJob(d.ctx, m, d.url, body, timeout)
		c.mu.Lock()
		delete(m.inflight, d)
		lost, closed := d.lost, c.closed
		c.cond.Broadcast()
		c.mu.Unlock()
		d.cancel()

		switch {
		case derr == nil:
			return rr, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case closed:
			return nil, serve.ErrRemoteUnavailable
		case lost:
			// The job has now consumed one dead worker. A second death
			// surfaces serve.ErrWorkerLost: the client deserves a typed
			// answer, not an unbounded retry loop.
			if requeued {
				return nil, serve.ErrWorkerLost
			}
			requeued = true
			c.m.requeues.Add(1)
			exclude = m.id
			continue
		}
		var je *workerJobError
		if errors.As(derr, &je) {
			if je.panicky() {
				c.quarantinePair(m.id, key)
				if !panicHop && c.placeable(key, m.id) {
					panicHop = true
					c.m.reroutes.Add(1)
					exclude = m.id
					continue
				}
			}
			return &serve.RemoteResult{
				Worker:     m.id,
				Status:     je.Status,
				HTTPStatus: je.HTTPStatus,
				Error:      je.Text,
			}, nil
		}
		// Transport-level failure: the worker never answered. Back off with
		// jitter and reroute; a member this unreachable will also be failing
		// its probes, so its detector takes it out of routing shortly.
		attempts++
		if attempts > maxDispatchRetries {
			return nil, fmt.Errorf("%w: %v", serve.ErrRemoteUnavailable, derr)
		}
		c.m.retries.Add(1)
		if err := c.backoff(ctx, attempts); err != nil {
			return nil, err
		}
		c.m.reroutes.Add(1)
		exclude, lastErr = m.id, derr
	}
}

// backoff sleeps the jittered exponential delay before retry number attempt,
// returning early with ctx's error or, on Close, ErrRemoteUnavailable.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	delay := retryBaseDelay << (attempt - 1)
	if delay > retryMaxDelay {
		delay = retryMaxDelay
	}
	timer := time.NewTimer(time.Duration(float64(delay) * (0.5 + rand.Float64())))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.stopc:
		return serve.ErrRemoteUnavailable
	}
}

// acquire picks the job's worker and takes one of its slots, waiting while
// every slot of the pick is busy and re-picking on each wake.
func (c *Coordinator) acquire(ctx context.Context, key, exclude string) (*dispatch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, serve.ErrRemoteUnavailable
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := c.pickLocked(key, exclude)
		if m == nil {
			return nil, serve.ErrRemoteUnavailable
		}
		if len(m.inflight) < m.slots {
			d := &dispatch{m: m, url: m.url}
			d.ctx, d.cancel = context.WithCancel(ctx)
			m.inflight[d] = struct{}{}
			return d, nil
		}
		m.waiting++
		c.cond.Wait()
		m.waiting--
	}
}

// pickLocked returns the key's worker: the first Alive member in ring order
// from the key's home, skipping quarantined (worker, key) pairs and the
// excluded worker. Caller holds c.mu.
func (c *Coordinator) pickLocked(key, exclude string) *member {
	for _, id := range c.ring.LookupN(key, len(c.members)) {
		m, ok := c.members[id]
		if !ok || id == exclude || m.det.State() != StateAlive {
			continue
		}
		if _, bad := c.quarantined[pairKey(id, key)]; bad {
			continue
		}
		return m
	}
	if exclude != "" {
		// Down to one worker and it is the one we just failed against: retry
		// there rather than degrade — the failure may have been transient.
		if m, ok := c.members[exclude]; ok && m.det.State() == StateAlive {
			if _, bad := c.quarantined[pairKey(exclude, key)]; !bad {
				return m
			}
		}
	}
	return nil
}

// placeable reports whether some worker other than exclude may take key now.
func (c *Coordinator) placeable(key, exclude string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pickLocked(key, exclude) != nil
}

func (c *Coordinator) quarantinePair(workerID, key string) {
	c.mu.Lock()
	k := pairKey(workerID, key)
	if _, dup := c.quarantined[k]; !dup {
		c.quarantined[k] = struct{}{}
		c.m.pairsBlocked.Add(1)
	}
	c.mu.Unlock()
	c.cfg.Logf("fabric: quarantined pair worker=%s key=%s after panic answer", workerID, key)
}

// workerJobError is a worker's terminal non-2xx job answer: the job ran (or
// was rejected) and the worker said so. Distinct from transport errors,
// which mean the worker never answered.
type workerJobError struct {
	HTTPStatus int
	Status     string
	Text       string
}

func (e *workerJobError) Error() string {
	return fmt.Sprintf("worker answered %d (%s): %s", e.HTTPStatus, e.Status, e.Text)
}

// panicky reports whether the answer smells like a worker-side panic or
// quarantine — the signals that earn a (worker, key) pair quarantine.
func (e *workerJobError) panicky() bool {
	return e.HTTPStatus == http.StatusInternalServerError &&
		(bytes.Contains([]byte(e.Text), []byte("panic")) ||
			bytes.Contains([]byte(e.Text), []byte("quarantined")))
}

// transientHTTP reports worker answers that should be treated like transport
// failures (retry elsewhere): the worker exists but cannot take the job now.
func transientHTTP(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// postJob forwards the marshalled spec to the worker's synchronous job API at
// url and maps the worker's terminal view. nil error means the job is
// terminal (success or relayed failure is decided by the caller from
// RemoteResult).
func (c *Coordinator) postJob(ctx context.Context, m *member, url string, body []byte, timeout time.Duration) (*serve.RemoteResult, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout+requestGrace)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if transientHTTP(resp.StatusCode) {
		return nil, fmt.Errorf("worker %s not accepting work: HTTP %d", m.id, resp.StatusCode)
	}
	var view struct {
		Status string           `json:"status"`
		Error  string           `json:"error"`
		Result *serve.JobResult `json:"result"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &view); err != nil {
			return nil, fmt.Errorf("worker %s: bad job view: %w", m.id, err)
		}
		return &serve.RemoteResult{
			Worker:     m.id,
			Status:     view.Status,
			HTTPStatus: http.StatusOK,
			Error:      view.Error,
			Result:     view.Result,
		}, nil
	}
	// Terminal worker-side failure (504 deadline, 500 panic/quarantine, 422
	// reject, ...): parse what we can and relay through workerJobError.
	text := ""
	status := serve.StatusFailed
	if json.Unmarshal(payload, &view) == nil {
		if view.Error != "" {
			text = view.Error
		}
		if view.Status != "" {
			status = view.Status
		}
	}
	if text == "" {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &apiErr) == nil && apiErr.Error != "" {
			text = apiErr.Error
		}
	}
	if text == "" {
		text = fmt.Sprintf("worker %s answered HTTP %d", m.id, resp.StatusCode)
	}
	return nil, &workerJobError{HTTPStatus: resp.StatusCode, Status: status, Text: text}
}

// probeLoop drives one worker's failure detector off its /readyz endpoint.
func (c *Coordinator) probeLoop(m *member) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-ticker.C:
		}
		c.probe(m)
	}
}

func (c *Coordinator) probe(m *member) {
	c.mu.Lock()
	url := m.url
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		cancel()
		return
	}
	resp, err := m.client.Do(req)
	cancel()
	now := time.Now()
	var st WorkerState
	var changed bool
	switch {
	case err != nil:
		// A probe that timed out is soft evidence (only silence counts); an
		// immediate transport error (refused, reset, chaos kill) is hard
		// evidence.
		hard := !errors.Is(err, context.DeadlineExceeded)
		st, changed = m.det.ObserveFailure(now, hard)
	case resp.StatusCode == http.StatusOK:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		st, changed = m.det.ObserveSuccess(now)
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		st, changed = m.det.ObserveNotReady(now)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		st, changed = m.det.ObserveFailure(now, false)
	}
	if changed {
		c.onStateChange(m, st)
	}
}

// onStateChange applies a detector transition. Dead marks the member's
// in-flight dispatches lost and cancels them, so each job spends its
// exactly-once requeue budget. Every transition wakes waiting jobs to
// re-pick: only Alive members take new work.
func (c *Coordinator) onStateChange(m *member, st WorkerState) {
	c.cfg.Logf("fabric: worker %s -> %s (silent %s)", m.id, st, m.det.Silence(time.Now()).Round(time.Millisecond))
	c.mu.Lock()
	defer c.mu.Unlock()
	if st == StateDead {
		c.m.workersDead.Add(1)
		for d := range m.inflight {
			d.lost = true
			d.cancel()
		}
	}
	c.cond.Broadcast()
}
