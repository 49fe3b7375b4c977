package cpu

import (
	"runtime"
	"testing"

	"loopfrog/internal/asm"
	"loopfrog/internal/workloads"
)

// heapAfterRun runs prog on a fresh machine and returns the heap the finished
// machine still holds after a full collection, with the run's statistics.
func heapAfterRun(t *testing.T, cfg Config, prog *asm.Program) (int64, *Stats) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), st
}

// TestRetainedHeapBounded checks that a finished machine's heap is bounded
// by its in-flight window, not by the length of the run: an instruction that
// left the window keeps no other instruction reachable (dynInst.release).
// A run stopped at a quarter of leela's instructions and the full run must
// hold nearly the same heap.
func TestRetainedHeapBounded(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "leela").MustProgram()
	cfg := DefaultConfig()
	full, st := heapAfterRun(t, cfg, prog)
	if !st.Halted {
		t.Fatal("full run did not halt")
	}
	cfg.MaxArchInsts = st.ArchInsts / 4
	capped, cst := heapAfterRun(t, cfg, prog)
	if cst.Halted {
		t.Fatal("capped run halted")
	}
	const limit = 2 << 20
	t.Logf("retained heap: capped run (%d insts) %d KiB, full run (%d insts) %d KiB",
		cst.ArchInsts, capped>>10, st.ArchInsts, full>>10)
	if d := full - capped; d > limit || d < -limit {
		t.Errorf("retained heap grows with run length: full run %d KiB, capped run %d KiB (limit %d KiB apart)",
			full>>10, capped>>10, limit>>10)
	}
}

// TestSteadyStateAllocs checks that a warmed machine allocates almost
// nothing per committed instruction: instructions come from chunks
// (newInst), waiter lists start inline, and the pipeline's queues and
// scratch slices are reused.
func TestSteadyStateAllocs(t *testing.T) {
	prog := workloads.ByName(workloads.CPU2017(), "leela").MustProgram()
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	const warm, step, runs = 20_000, 2_000, 20
	for i := 0; i < warm; i++ {
		m.cycle()
	}
	start := m.stats.CommitSlotsUsed
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < step; i++ {
			m.cycle()
		}
	})
	if m.halted {
		t.Fatal("machine halted during the measurement; shorten it")
	}
	// AllocsPerRun calls the function once more as its own warm-up.
	insts := float64(m.stats.CommitSlotsUsed-start) / (runs + 1)
	perInst := allocs / insts
	t.Logf("%.0f allocs and %.0f committed insts per %d cycles: %.3f allocs/inst", allocs, insts, step, perInst)
	if perInst > 0.2 {
		t.Errorf("%.3f allocations per committed instruction, want <= 0.2", perInst)
	}
}
