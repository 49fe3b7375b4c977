package fabric

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
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
// Decisions draw from independent per-kind streams derived with
// fault.StreamSeed from one base seed, mirroring internal/fault's design:
// one -chaos-seed reproduces the whole failure schedule. What stays
// deterministic under chaos is the *result set* — simulations are pure, so
// however many workers die mid-sweep, every job that completes returns
// byte-identical results to a clean single-node run; chaos_test.go holds the
// fabric to that.

// chaosKind enumerates the injectable fabric failures.
type chaosKind int

const (
	chaosKill chaosKind = iota
	chaosPartition
	chaosDelay
	numChaosKinds
)

// chaosLaneBase offsets fabric chaos lanes away from internal/fault's kind
// lanes, so a shared base seed still yields independent streams.
const chaosLaneBase = 32

var chaosInfo = [numChaosKinds]struct {
	name string
	def  float64 // per-request probability
}{
	chaosKill:      {"kill", 0.002},
	chaosPartition: {"partition", 0.01},
	chaosDelay:     {"delay", 0.05},
}

// Chaos injects deterministic worker failures into the coordinator's
// transports. Plug it in via Config.WrapTransport. Safe for concurrent use.
type Chaos struct {
	spec string
	seed int64

	mu          sync.Mutex
	prob        [numChaosKinds]float64
	rng         [numChaosKinds]*rand.Rand
	counts      [numChaosKinds]uint64
	killed      map[string]bool
	partitioned map[string]time.Time
}

// ParseChaos builds a chaos plan from a spec with the same grammar as
// internal/fault specs:
//
//	spec  := "" | "none" | entry ("," entry)*
//	entry := name [ "=" probability ]      probability in (0, 1]
//	name  := "all" | "kill" | "partition" | "delay"
//
// Probabilities are per coordinator->worker request (probes included).
// "all" enables every kind at its default; an empty or "none" spec returns
// a nil plan (no injection).
func ParseChaos(spec string, seed int64) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	c := &Chaos{
		spec:        spec,
		seed:        seed,
		killed:      make(map[string]bool),
		partitioned: make(map[string]time.Time),
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("fabric: empty entry in chaos spec %q", spec)
		}
		name, probStr, hasProb := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if name == "all" {
			if hasProb {
				return nil, fmt.Errorf("fabric: %q takes no probability (override kinds individually)", entry)
			}
			for k := chaosKind(0); k < numChaosKinds; k++ {
				c.prob[k] = chaosInfo[k].def
			}
			continue
		}
		k := chaosKind(-1)
		for i := chaosKind(0); i < numChaosKinds; i++ {
			if chaosInfo[i].name == name {
				k = i
				break
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("fabric: unknown chaos kind %q (want all, kill, partition, delay)", name)
		}
		prob := chaosInfo[k].def
		if hasProb {
			v, err := strconv.ParseFloat(strings.TrimSpace(probStr), 64)
			if err != nil {
				return nil, fmt.Errorf("fabric: bad probability in %q: %v", entry, err)
			}
			if v <= 0 || v > 1 {
				return nil, fmt.Errorf("fabric: probability in %q outside (0,1]", entry)
			}
			prob = v
		}
		c.prob[k] = prob
	}
	for k := chaosKind(0); k < numChaosKinds; k++ {
		if c.prob[k] > 0 {
			c.rng[k] = rand.New(rand.NewSource(fault.StreamSeed(seed, chaosLaneBase+int(k))))
		}
	}
	return c, nil
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
	c.counts[chaosKill]++
	c.mu.Unlock()
}

// Revive clears a worker's killed/partitioned marks.
func (c *Chaos) Revive(workerID string) {
	c.mu.Lock()
	delete(c.killed, workerID)
	delete(c.partitioned, workerID)
	c.mu.Unlock()
}

// String summarises the plan and its injection counters.
func (c *Chaos) String() string {
	if c == nil {
		return "chaos: none"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var parts []string
	for k := chaosKind(0); k < numChaosKinds; k++ {
		if c.counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", chaosInfo[k].name, c.counts[k]))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return fmt.Sprintf("chaos[%s seed=%d]: none fired", c.spec, c.seed)
	}
	return fmt.Sprintf("chaos[%s seed=%d]: %s", c.spec, c.seed, strings.Join(parts, " "))
}

func (c *Chaos) roll(k chaosKind) bool {
	if c.prob[k] <= 0 {
		return false
	}
	if c.prob[k] < 1 && c.rng[k].Float64() >= c.prob[k] {
		return false
	}
	c.counts[k]++
	return true
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
	if c.roll(chaosKill) {
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
	if c.roll(chaosPartition) {
		dur := 500*time.Millisecond + time.Duration(c.rng[chaosPartition].Int63n(int64(2*time.Second)))
		c.partitioned[workerID] = now.Add(dur)
		return &chaosError{workerID, "partitioned"}, 0
	}
	if c.roll(chaosDelay) {
		return nil, 25*time.Millisecond + time.Duration(c.rng[chaosDelay].Int63n(int64(250*time.Millisecond)))
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
