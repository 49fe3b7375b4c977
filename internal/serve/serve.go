// Package serve is the simulation-as-a-service layer: an HTTP/JSON daemon
// (cmd/lfservd) that accepts simulation jobs over the network, admits them
// through a bounded queue with priority lanes, runs a mandatory hint-legality
// preflight (internal/lint), schedules the admitted work onto the existing
// sim.Harness worker pool — inheriting its singleflight run-cache (LRU
// bounded), panic quarantine, and per-job watchdog-backed deadlines — and
// streams progress and results back.
//
// Endpoints:
//
//	POST /v1/jobs        submit a job (sync by default, "async": true for 202+poll);
//	                     "kind" selects the engine: "sim" (default) or "tune"
//	                     (the hint autotuner, always on the sweep lane)
//	POST /v1/tune        submit an autotuning search (kind "tune" sugar)
//	GET  /v1/jobs/{id}   job status/result; ?stream=1 or Accept: text/event-stream
//	                     streams queued→running→progress→done as server-sent events
//	                     (tune jobs report status only, no machine counters)
//	GET  /metrics        telemetry registry snapshot (serve.* + harness.*) as
//	                     JSON; ?format=prom or Accept: text/plain selects the
//	                     Prometheus text exposition format
//	GET  /healthz        liveness: 200 while the process is up (drain state in body)
//	GET  /readyz         readiness: 200 while accepting jobs, 503 while draining
//	GET  /v1/version     daemon identity and configuration
//
// Degradation is explicit: a full admission queue answers 429 with a
// Retry-After estimate, an illegal program answers 422 with the full lint
// report, a deadline expiry answers 504, a quarantined or crashed simulation
// answers 500 — and a SIGTERM drain stops admission (503) while every
// admitted job still completes.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loopfrog/internal/sim"
	"loopfrog/internal/telemetry"
)

// Version identifies the serving API generation.
const Version = "1.0"

// maxBodyBytes bounds a request body; a larger one is answered with 413.
const maxBodyBytes = 4 << 20

// Config tunes the daemon. The zero value is usable: every field falls back
// to the documented default.
type Config struct {
	// Runners is the number of concurrent jobs the server executes; each job
	// may fan several simulations onto the harness pool. <= 0 means
	// GOMAXPROCS, capped at 8.
	Runners int
	// QueueDepth bounds each admission lane (interactive, sweep); a full
	// lane rejects with 429. <= 0 means 64.
	QueueDepth int
	// Workers sizes the underlying sim.Harness worker pool; <= 0 means
	// GOMAXPROCS.
	Workers int
	// CacheCapacity bounds the harness run-cache (LRU entries); 0 means
	// sim.DefaultCacheCapacity, < 0 disables the bound.
	CacheCapacity int
	// DefaultTimeout applies to jobs that do not request one; MaxTimeout
	// caps what a job may request. Defaults: 60s and 5m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetainJobs bounds the finished-job registry; older finished jobs are
	// forgotten FIFO. <= 0 means 1024.
	RetainJobs int
	// ProgressInterval is the SSE progress sampling period; <= 0 means 200ms.
	ProgressInterval time.Duration
	// Remote, when non-nil, executes admitted jobs on the distributed fabric
	// (internal/fabric) instead of the local harness. The local harness stays
	// as the degradation path: jobs the fabric cannot place (no live workers)
	// run locally. See RemoteExecutor in remote.go for the contract.
	Remote RemoteExecutor
}

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = runtime.GOMAXPROCS(0)
		if c.Runners > 8 {
			c.Runners = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = sim.DefaultCacheCapacity
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 200 * time.Millisecond
	}
	return c
}

// Server is the serving daemon's state: the harness it schedules onto, the
// admission lanes, the job registry, and the metrics registry.
type Server struct {
	cfg     Config
	harness *sim.Harness
	reg     *telemetry.Registry

	// Admission lanes. Interactive wins the biased select in the runner
	// loop, so a long sweep enqueue never starves a human.
	interactive chan *job
	sweep       chan *job

	// Lifecycle: baseCtx cancels every running job on forced shutdown;
	// stop ends the runner loops; draining gates admission.
	baseCtx  context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	runnerWG sync.WaitGroup
	draining atomic.Bool

	// Job registry.
	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // FIFO of finished job IDs, bounded by RetainJobs
	seq      atomic.Uint64

	m serveMetrics
}

// New builds a server with its own harness and bounded run-cache and starts
// the runner loops. Call Shutdown to drain it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cacheCap := cfg.CacheCapacity
	if cacheCap < 0 {
		cacheCap = 0 // unbounded
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		harness:     &sim.Harness{Workers: cfg.Workers, Cache: sim.NewBoundedRunCache(cacheCap)},
		reg:         telemetry.NewRegistry(),
		interactive: make(chan *job, cfg.QueueDepth),
		sweep:       make(chan *job, cfg.QueueDepth),
		baseCtx:     ctx,
		cancel:      cancel,
		stop:        make(chan struct{}),
		jobs:        make(map[string]*job),
	}
	s.registerMetrics()
	s.runnerWG.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go s.runnerLoop()
	}
	return s
}

// Harness exposes the server's scheduler, mainly for tests and for the load
// generator's cache statistics.
func (s *Server) Harness() *sim.Harness { return s.harness }

// Handler returns the daemon's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/tune", s.handleTune)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	return mux
}

// Shutdown drains the server: admission stops immediately (healthz flips to
// 503, new submissions get 503), queued and running jobs complete, then the
// runner loops exit. If ctx expires first, every remaining job is cancelled
// and the loops are awaited regardless, so Shutdown never leaks a runner.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	drained := make(chan struct{})
	go func() {
		for {
			if len(s.interactive) == 0 && len(s.sweep) == 0 && s.m.inflight.Load() == 0 {
				close(drained)
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain aborted: %w", ctx.Err())
		s.cancel() // cancel running jobs so the runners come back
	}
	close(s.stop)
	s.runnerWG.Wait()
	s.cancel()
	return err
}

// handleHealthz is the liveness probe: 200 for as long as the process can
// answer HTTP at all, draining or not. The draining flag rides along so a
// human hitting the endpoint sees the lifecycle state, but orchestrators must
// not restart a draining daemon — that is what readiness is for.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.draining.Load()})
}

// handleReadyz is the readiness probe: 200 while the daemon accepts new jobs,
// 503 during a graceful drain. The fabric's worker health probes key on this
// endpoint, so a draining worker is routed around (no new jobs) while its
// admitted jobs finish — distinct from dead, which requeues in-flight work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"name":        "lfservd",
		"version":     Version,
		"go":          runtime.Version(),
		"runners":     s.cfg.Runners,
		"queue_depth": s.cfg.QueueDepth,
		"cache_cap":   s.harness.Cache.Capacity(),
	})
}

// handleMetrics serves the registry snapshot. JSON is the default; the
// Prometheus text exposition format (version 0.0.4) is selected by
// ?format=prom or by an Accept header asking for text/plain, so a stock
// Prometheus scrape config needs no URL parameters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteJSON(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// writeJSON renders one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// retryAfterSeconds estimates how long a rejected client should back off:
// queue depth times the recent p50 job latency, divided by the runner count,
// with ±20% jitter so a synchronized cohort of rejected clients does not
// return as a thundering herd at the same instant. The p50 comes from the
// completed-job latency ring; before any job has completed it falls back to
// the harness's mean job time, then to one second. Floored at one second.
func (s *Server) retryAfterSeconds() int {
	queued := len(s.interactive) + len(s.sweep) + int(s.m.inflight.Load())
	p50, _ := s.m.percentiles()
	if p50 <= 0 {
		if st := s.harness.Stats(); st.Jobs > 0 {
			p50 = time.Duration(st.JobNanos / int64(st.Jobs)).Seconds()
		}
	}
	if p50 <= 0 {
		p50 = 1
	}
	est := float64(queued) * p50 / float64(s.cfg.Runners)
	est *= 0.8 + 0.4*rand.Float64() // ±20% jitter
	sec := int(est + 0.5)
	if sec < 1 {
		sec = 1
	}
	return sec
}
