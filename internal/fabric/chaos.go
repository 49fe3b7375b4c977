package fabric

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"loopfrog/internal/fault"
)

// Fabric chaos: seeded, deterministic injection of the three distributed
// failure modes — worker kill (permanent transport death), partition
// (transient unreachability window), and delay (added request latency) — at
// the coordinator's HTTP transport, below every retry/requeue
// mechanism, so chaos exercises exactly the code paths real failures take.
//
// Decisions draw from independent per-kind streams of one base seed, parsed
// and drawn by internal/fault's spec grammar: one -chaos-seed reproduces the
// whole failure schedule. What stays deterministic under chaos is the
// *result set* — simulations are pure, so
// however many workers die mid-sweep, every job that completes returns
// byte-identical results to a clean single-node run; chaos_test.go holds the
// fabric to that.

// The injectable fabric failures, indexes into chaosGrammar's kinds.
const (
	chaosKill = iota
	chaosPartition
	chaosDelay
)

// chaosGrammar is the fabric's fault-spec grammar. Its stream lanes start
// at 32, past internal/fault's machine kinds, so a shared base seed still
// yields independent streams.
var chaosGrammar = fault.Grammar{Pkg: "fabric", Noun: "chaos", LaneBase: 32, Kinds: []fault.KindDef{
	chaosKill:      {Name: "kill", Prob: 0.002, InAll: true},
	chaosPartition: {Name: "partition", Prob: 0.01, InAll: true},
	chaosDelay:     {Name: "delay", Prob: 0.05, InAll: true},
}}

// Chaos injects deterministic worker failures into the coordinator's
// transports. Plug it in via Config.WrapTransport. Safe for concurrent use.
type Chaos struct {
	mu          sync.Mutex // guards everything below, streams included
	streams     *fault.Streams
	killed      map[string]bool
	partitioned map[string]time.Time
}

// ParseChaos builds a chaos plan from a spec in the internal/fault grammar
// over the kinds "kill", "partition" and "delay". Probabilities are per
// coordinator->worker request (probes included). "all" enables every kind
// at its default; an empty or "none" spec returns a nil plan (no
// injection).
func ParseChaos(spec string, seed int64) (*Chaos, error) {
	s, err := chaosGrammar.Parse(spec, seed)
	if s == nil || err != nil {
		return nil, err
	}
	return &Chaos{streams: s, killed: make(map[string]bool), partitioned: make(map[string]time.Time)}, nil
}

// WrapTransport is the Config.WrapTransport hook: every request to workerID
// first consults the chaos plan.
func (c *Chaos) WrapTransport(workerID string, base http.RoundTripper) http.RoundTripper {
	return &chaosTransport{chaos: c, worker: workerID, base: base}
}

// Kill marks a worker permanently dead, for tests that need a failure at an
// exact moment rather than a sampled one.
func (c *Chaos) Kill(workerID string) {
	c.mu.Lock()
	c.killed[workerID] = true
	c.streams.Fire(chaosKill)
	c.mu.Unlock()
}

// String summarises the plan and its injection counters.
func (c *Chaos) String() string {
	if c == nil {
		return "chaos: none"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams.Summary("chaos")
}

// chaosError is the transport error chaos injects; it must look like any
// other connection failure to the retry and probe layers.
type chaosError struct {
	worker string
	mode   string
}

func (e *chaosError) Error() string {
	return fmt.Sprintf("chaos: worker %s %s", e.worker, e.mode)
}

// decide consults the plan for one request: an error (killed or
// partitioned), an added delay, or clean passage.
func (c *Chaos) decide(workerID string) (error, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed[workerID] {
		return &chaosError{workerID, "killed"}, 0
	}
	if c.streams.Roll(chaosKill) {
		c.killed[workerID] = true
		return &chaosError{workerID, "killed"}, 0
	}
	now := time.Now()
	if until, ok := c.partitioned[workerID]; ok {
		if now.Before(until) {
			return &chaosError{workerID, "partitioned"}, 0
		}
		delete(c.partitioned, workerID)
	}
	if c.streams.Roll(chaosPartition) {
		dur := 500*time.Millisecond + time.Duration(c.streams.Rand(chaosPartition).Int63n(int64(2*time.Second)))
		c.partitioned[workerID] = now.Add(dur)
		return &chaosError{workerID, "partitioned"}, 0
	}
	if c.streams.Roll(chaosDelay) {
		return nil, 25*time.Millisecond + time.Duration(c.streams.Rand(chaosDelay).Int63n(int64(250*time.Millisecond)))
	}
	return nil, 0
}

type chaosTransport struct {
	chaos  *Chaos
	worker string
	base   http.RoundTripper
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	err, delay := t.chaos.decide(t.worker)
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	return t.base.RoundTrip(req)
}
