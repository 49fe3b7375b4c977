package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

// stub returns a run function that produces a distinguishable Stats value.
func stub(cycles int64) func() (*cpu.Stats, error) {
	return func() (*cpu.Stats, error) { return &cpu.Stats{Cycles: cycles}, nil }
}

// TestCacheLRUBound: the cache never holds more completed entries than its
// capacity, evicts in least-recently-used order, and a hit refreshes recency.
func TestCacheLRUBound(t *testing.T) {
	c := NewBoundedRunCache(2)
	for i := 1; i <= 3; i++ {
		if _, err := c.Do(fmt.Sprintf("k%d", i), stub(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("resident entries = %d, want 2", n)
	}
	if ev := c.Evictions(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// k1 was the least recently used: re-requesting it must re-execute.
	misses := c.Misses()
	if _, err := c.Do("k1", stub(1)); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != misses+1 {
		t.Error("evicted key k1 was served from the cache")
	}
	// Now k3 is LRU-adjacent to k1; touching k3 then inserting k4 must evict
	// k1 again (k3 was refreshed), keeping k3 and k4 resident.
	if st, err := c.Do("k3", stub(99)); err != nil || st.Cycles != 3 {
		t.Fatalf("k3 hit: stats=%v err=%v, want cached Cycles=3", st, err)
	}
	if _, err := c.Do("k4", stub(4)); err != nil {
		t.Fatal(err)
	}
	misses = c.Misses()
	if st, err := c.Do("k3", stub(99)); err != nil || st.Cycles != 3 || c.Misses() != misses {
		t.Errorf("recently touched k3 was evicted (stats=%v err=%v misses %d→%d)", st, err, misses, c.Misses())
	}
	if _, err := c.Do("k1", stub(1)); err != nil {
		t.Fatal(err)
	}
	if c.Misses() == misses {
		t.Error("k1 survived although it was the least recently used entry")
	}
}

// TestDefaultCacheIsBounded: NewRunCache (the harness default) carries the
// default capacity, so a long-lived process cannot grow the cache without
// limit.
func TestDefaultCacheIsBounded(t *testing.T) {
	if got := NewRunCache().Capacity(); got != DefaultCacheCapacity {
		t.Errorf("NewRunCache capacity = %d, want %d", got, DefaultCacheCapacity)
	}
	st := (&Harness{Cache: NewRunCache()}).Stats()
	if st.CacheCapacity != DefaultCacheCapacity {
		t.Errorf("HarnessStats.CacheCapacity = %d, want %d", st.CacheCapacity, DefaultCacheCapacity)
	}
}

// TestCancelledJoinerDoesNotBlock: a joiner whose context dies while someone
// else's identical run is in flight returns immediately with the context
// error instead of blocking until the flight lands.
func TestCancelledJoinerDoesNotBlock(t *testing.T) {
	c := NewRunCache()
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do("slow", func() (*cpu.Stats, error) {
			close(started)
			<-release
			return &cpu.Stats{Cycles: 1}, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.DoContext(ctx, "slow", stub(1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("joiner err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner blocked on the in-flight run")
	}
	close(release)
	// The abandoned flight still completes and is cached for later callers.
	if st, err := c.Do("slow", stub(2)); err != nil || st.Cycles != 1 {
		t.Errorf("flight result lost after joiner cancellation: stats=%v err=%v", st, err)
	}
}

// TestRunJobsCtxCancelNoLeak: cancelling a batch mid-run stops every machine
// promptly, fails unstarted jobs fast, and leaves no worker or joiner
// goroutine behind.
func TestRunJobsCtxCancelNoLeak(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram()
	jobs := make([]Job, 8)
	for i := range jobs {
		cfg := cpu.DefaultConfig()
		cfg.MaxCycles = defaultMaxCycles + int64(i) // distinct cache keys
		jobs[i] = Job{Cfg: cfg, Prog: prog}
	}
	before := runtime.NumGoroutine()
	h := &Harness{Workers: 4, Cache: NewRunCache()}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, errs := h.RunJobsCtx(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job reported the cancellation")
	}
	// Goroutines must drain back to (near) the pre-batch level; allow slack
	// for runtime helpers and retry briefly since exits are asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
