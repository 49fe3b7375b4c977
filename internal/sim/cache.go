package sim

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"loopfrog/internal/asm"
	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
)

// defaultMaxCycles mirrors the cpu.Machine default so that a zero MaxCycles
// and an explicit 200M produce the same cache key.
const defaultMaxCycles = 200_000_000

// CanonicalConfig normalises a configuration to its behavioural equivalence
// class: two configs with equal canonical forms produce bit-identical Stats
// for every program. Beyond the normalisations cpu.NewMachine itself applies
// (SSB slice count, the MaxCycles default), a single-context run never
// spawns a threadlet, so the entire LoopFrog apparatus — SSB geometry,
// packing, region monitor, conflict detector — is inert and is erased from
// the key. This is what lets every sweep point of Figures 9/10 and the
// associativity study share one baseline simulation.
func CanonicalConfig(cfg cpu.Config) cpu.Config {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = defaultMaxCycles
	}
	cfg.Watchdog = cfg.Watchdog.Normalized()
	cfg.SSB.Slices = cfg.Threadlets
	if cfg.Threadlets == 1 {
		cfg.SSB = core.SSBConfig{}
		cfg.Pack = core.PackConfig{}
		cfg.Monitor = core.MonitorConfig{}
		cfg.BloomBits, cfg.BloomHashes = 0, 0
		cfg.ConflictCheckLatency = 0
		cfg.SpawnLatency = 0
	}
	return cfg
}

// CacheKey returns the run-cache key for a (config, program) job: the
// program's content fingerprint joined with the canonicalised config rendered
// field-by-field. Config structs are plain data, so the %+v rendering is a
// complete, deterministic fingerprint with no collision risk from hashing.
func CacheKey(cfg cpu.Config, prog *asm.Program) string {
	return prog.Fingerprint() + "|" + fmt.Sprintf("%+v", CanonicalConfig(cfg))
}

// Fingerprint returns a short, stable hex fingerprint of the run-cache key
// for (cfg, prog). It is the job's routing identity in the distributed fabric
// — the consistent-hash ring keys on it so identical (program, config) jobs
// land on the worker that already has the run cached — and the debuggable
// form surfaced in job-accepted responses and SSE progress events.
func Fingerprint(cfg cpu.Config, prog *asm.Program) string {
	sum := sha256.Sum256([]byte(CacheKey(cfg, prog)))
	return hex.EncodeToString(sum[:8])
}

// cacheEntry is one singleflight slot: the first arrival runs the simulation
// and closes done; everyone else blocks on done and copies the result.
type cacheEntry struct {
	key   string
	done  chan struct{}
	stats cpu.Stats
	err   error
	// elem is the entry's LRU list node, linked (under RunCache.mu) once the
	// run completes successfully; nil while the entry is still in flight.
	elem *list.Element
}

// DefaultCacheCapacity bounds a NewRunCache by default: large enough that
// every sweep in the repo's experiment set fits with room to spare, small
// enough that a long-lived process (a serving daemon, a day of sweeps) cannot
// grow without limit. One entry holds a cpu.Stats (~1 KiB), so the default
// bound costs at most a few MiB.
const DefaultCacheCapacity = 4096

// RunCache memoises simulation results keyed by CacheKey. A sweep that
// re-simulates its baseline at every point, or a benchmark suite that runs
// the same (config, program) pair from several experiments, pays for one
// simulation; concurrent requests for the same key are deduplicated in
// flight (singleflight), so a parallel sweep never runs the shared baseline
// twice. Stats are stored by value and returned as fresh copies, so callers
// may not corrupt each other. Failed runs are never retained: the error is
// delivered to the caller and every in-flight joiner, then the entry is
// evicted, so a transient failure (a timeout, a worker panic) cannot poison
// every later request for the key.
//
// The cache is bounded: completed entries form an LRU list and the least
// recently used one is evicted when the resident count exceeds the capacity.
// In-flight entries are never evicted (their population is bounded by the
// worker pool), and an evicted key simply re-simulates on next use. The zero
// value is ready to use and unbounded; NewRunCache applies
// DefaultCacheCapacity.
type RunCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru holds completed entries, most recently used at the front.
	lru      list.List
	capacity int

	// Counters, readable while the cache is in use.
	hits      atomic.Uint64 // completed-entry hits
	flight    atomic.Uint64 // singleflight joins (entry still running)
	misses    atomic.Uint64 // simulations actually executed
	failures  atomic.Uint64 // errored runs evicted instead of cached
	evictions atomic.Uint64 // completed entries displaced by the LRU bound
}

// NewRunCache returns an empty run cache bounded at DefaultCacheCapacity.
func NewRunCache() *RunCache { return &RunCache{capacity: DefaultCacheCapacity} }

// NewBoundedRunCache returns an empty run cache holding at most capacity
// completed entries; capacity <= 0 means unbounded.
func NewBoundedRunCache(capacity int) *RunCache { return &RunCache{capacity: capacity} }

// Capacity returns the LRU bound (0 = unbounded).
func (c *RunCache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// evictOverLocked drops least-recently-used completed entries until the
// resident count fits the capacity. Caller holds c.mu.
func (c *RunCache) evictOverLocked() {
	if c.capacity <= 0 {
		return
	}
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.evictions.Add(1)
	}
}

// Do returns the memoised result for key, invoking run on first use.
// Concurrent callers with the same key share one invocation (singleflight).
// See DoContext.
func (c *RunCache) Do(key string, run func() (*cpu.Stats, error)) (*cpu.Stats, error) {
	return c.DoContext(context.Background(), key, run)
}

// DoContext returns the memoised result for key, invoking run on first use.
// Concurrent callers with the same key share one invocation (singleflight).
// Only successful results are cached; a failure is evicted before the flight
// is released, so the next identical request re-executes. If run panics, the
// panic is recovered into a PanicError — the flight channel always closes, so
// joiners can never deadlock on a crashed runner.
//
// A joiner that is cancelled while an in-flight run proceeds returns the
// context error immediately instead of blocking until the flight lands: a
// disconnected client never pins a goroutine to someone else's simulation.
// The flight itself is owned by its first caller and is not cancelled by a
// joiner's context.
func (c *RunCache) DoContext(ctx context.Context, key string, run func() (*cpu.Stats, error)) (*cpu.Stats, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed: a plain hit
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			c.hits.Add(1)
			st := e.stats
			return &st, e.err
		}
		c.mu.Unlock()
		c.flight.Add(1)
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("sim: abandoned in-flight run: %w", ctx.Err())
		}
		st := e.stats
		return &st, e.err
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		var st *cpu.Stats
		st, e.err = run()
		if st != nil {
			e.stats = *st
		}
	}()
	c.mu.Lock()
	if e.err != nil {
		c.failures.Add(1)
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushFront(e)
		c.evictOverLocked()
	}
	c.mu.Unlock()
	close(e.done)
	out := e.stats
	return &out, e.err
}

// Hits returns the number of requests served from a completed entry.
func (c *RunCache) Hits() uint64 { return c.hits.Load() }

// FlightJoins returns the number of requests that joined an in-flight
// simulation instead of starting their own (singleflight deduplication).
func (c *RunCache) FlightJoins() uint64 { return c.flight.Load() }

// Misses returns the number of simulations actually executed.
func (c *RunCache) Misses() uint64 { return c.misses.Load() }

// Failures returns the number of errored runs evicted instead of cached.
func (c *RunCache) Failures() uint64 { return c.failures.Load() }

// Evictions returns the number of completed entries displaced by the LRU
// capacity bound.
func (c *RunCache) Evictions() uint64 { return c.evictions.Load() }

// Len returns the number of distinct keys resident in the cache.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
