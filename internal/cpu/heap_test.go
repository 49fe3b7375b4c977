package cpu

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"loopfrog/internal/asm"
	"loopfrog/internal/core"
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
// nothing per committed instruction: instructions are reused from the free
// list (newInst), waiter lists start inline, and the pipeline's queues and
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < step; i++ {
			m.cycle()
		}
	})
	runtime.ReadMemStats(&after)
	if m.halted {
		t.Fatal("machine halted during the measurement; shorten it")
	}
	// AllocsPerRun calls the function once more as its own warm-up.
	committed := float64(m.stats.CommitSlotsUsed - start)
	perInst := allocs / (committed / (runs + 1))
	bytesPerInst := float64(after.TotalAlloc-before.TotalAlloc) / committed
	t.Logf("%.0f allocs and %.0f committed insts per %d cycles: %.3f allocs/inst, %.1f B/inst",
		allocs, committed/(runs+1), step, perInst, bytesPerInst)
	if perInst > 0.2 {
		t.Errorf("%.3f allocations per committed instruction, want <= 0.2", perInst)
	}
	if bytesPerInst > 32 {
		t.Errorf("%.1f bytes allocated per committed instruction, want <= 32", bytesPerInst)
	}
}

// checkInstOwners checks that every instruction the machine took from a
// chunk has exactly one owner: a threadlet's ROB or drain queue, the
// scheduler queue holding it after a squash, or the free list. An
// instruction with no owner leaked (a free site was skipped); one with two
// was freed while still reachable. A live instruction may sit in one
// scheduler queue besides its ROB, but never in two.
func checkInstOwners(t *testing.T, m *Machine, when string) {
	t.Helper()
	owner := make(map[*dynInst]string, m.instMade)
	own := func(e *dynInst, where string) {
		if prev, ok := owner[e]; ok {
			t.Fatalf("%s: instruction at pc %d held by both %s and %s", when, e.pc, prev, where)
		}
		owner[e] = where
	}
	for _, th := range m.threads {
		for _, e := range th.rob.items() {
			own(e, fmt.Sprintf("rob %d", th.id))
		}
		for _, e := range th.drain.items() {
			own(e, fmt.Sprintf("drain %d", th.id))
		}
	}
	queued := make(map[*dynInst]string)
	scan := func(q []*dynInst, name string) {
		for _, e := range q {
			if prev, ok := queued[e]; ok {
				t.Fatalf("%s: instruction at pc %d queued in both %s and %s", when, e.pc, prev, name)
			}
			queued[e] = name
			if e.squashed {
				own(e, name)
			}
		}
	}
	for c := range m.readyQ {
		scan(m.readyQ[c], fmt.Sprintf("ready queue %d", c))
	}
	scan(m.executing, "executing list")
	scan(m.replayQ, "replay queue")
	scan(m.delayedWake, "delayed-wake list")
	for _, e := range m.instFree {
		own(e, "free list")
	}
	if held := len(owner) + m.instDropped; held != m.instMade {
		t.Fatalf("%s: %d instructions taken from chunks, %d accounted for (%d owned, %d dropped)",
			when, m.instMade, held, len(owner), m.instDropped)
	}
}

// squashInjector forces conflict aborts, SSB-overflow squashes, threadlet
// kills and branch flips from one seeded stream.
type squashInjector struct{ rng *rand.Rand }

func (f squashInjector) ForceConflict(int64) bool    { return f.rng.Float64() < 0.05 }
func (f squashInjector) SuppressConflict(int64) bool { return false }
func (f squashInjector) ForceOverflow(int64) bool    { return f.rng.Float64() < 0.02 }
func (f squashInjector) KillThreadlet(_ int64, n int) (int, bool) {
	return f.rng.Intn(n), f.rng.Float64() < 0.001
}
func (f squashInjector) PoisonPack(int64, int, uint64) (uint64, bool) { return 0, false }
func (f squashInjector) FlipBranch(int64, int) bool                   { return f.rng.Float64() < 0.02 }
func (f squashInjector) Panic(int64) bool                             { return false }

// replayShadowSrc stores a byte and then, behind a hard-to-predict branch,
// loads the eight bytes around it. The load's address resolves after the
// store's, so it waits in the replay queue on the partial overlap, and a
// mispredicted branch squashes it there.
const replayShadowSrc = `
        .data
buf:    .zero 64
        .text
main:   la   a0, buf
        li   t0, 0
        li   t1, 3000
        li   t5, 12345
        li   s1, 1103515245
loop:   sb   t0, 0(a0)
        mul  t5, t5, s1
        addi t5, t5, 12345
        srli t4, t5, 16
        andi t4, t4, 1
        xor  t4, t4, zero
        or   t4, t4, zero
        and  t6, t5, zero
        add  t6, t6, a0
        beqz t4, skip
        ld   t2, 0(t6)
        add  t3, t3, t2
skip:   addi t0, t0, 1
        blt  t0, t1, loop
        halt
`

// TestInstRecycleAccounting runs whole programs through every squash path
// and checks, every few hundred cycles and at the end, that each instruction
// is owned exactly once (checkInstOwners), and that reuse keeps the number
// of instructions ever allocated near the window size.
func TestInstRecycleAccounting(t *testing.T) {
	cpu2017 := workloads.CPU2017()
	leela := workloads.ByName(cpu2017, "leela").MustProgram()
	mcf := workloads.ByName(cpu2017, "mcf").MustProgram()
	branchy := workloads.ByName(workloads.ChaosSuite(), "chaos-branchy").MustProgram()
	mitigated := DefaultConfig()
	mitigated.DelaySpeculativeLoadDeps = true
	cases := []struct {
		name   string
		cfg    Config
		prog   *asm.Program
		inject bool
	}{
		{"leela/loopfrog", DefaultConfig(), leela, false},
		{"leela/baseline", BaselineConfig(), leela, false},
		{"mcf/loopfrog", DefaultConfig(), mcf, false},
		{"mcf/baseline", BaselineConfig(), mcf, false},
		{"random-loop", DefaultConfig(), workloads.RandomHintedLoop(rand.New(rand.NewSource(7))), false},
		{"replay-shadow", BaselineConfig(), asm.MustAssemble("replay-shadow", replayShadowSrc), false},
		{"chaos-branchy/injected", DefaultConfig(), branchy, true},
		{"boundsbypass/mitigated", mitigated, securityProg(t, "boundsbypass"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMachine(tc.cfg, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			if tc.inject {
				m.SetFaultInjector(squashInjector{rand.New(rand.NewSource(3))})
			}
			const every, limit = 256, 5_000_000
			for !m.halted && m.memFault == nil && m.now < limit {
				m.cycle()
				if m.now%every == 0 {
					checkInstOwners(t, m, fmt.Sprintf("cycle %d", m.now))
				}
			}
			if !m.halted {
				t.Fatalf("run did not halt by cycle %d (fault %v)", m.now, m.memFault)
			}
			checkInstOwners(t, m, "end of run")
			st := m.stats
			t.Logf("%d cycles, %d committed, %d insts allocated, %d dropped; squashes %v",
				st.Cycles, st.CommitSlotsUsed, m.instMade, m.instDropped, st.Squashes)
			switch {
			case tc.inject:
				if st.Squashes[core.SquashOverflow] == 0 || st.Squashes[core.SquashConflict] == 0 {
					t.Errorf("injector forced no overflow or no conflict squash: %v", st.Squashes)
				}
			case tc.cfg.DelaySpeculativeLoadDeps:
				if st.DelayedWakes == 0 || m.instDropped == 0 {
					t.Errorf("mitigated run held %d wakeups and dropped %d instructions, want both > 0",
						st.DelayedWakes, m.instDropped)
				}
			}
			if !tc.cfg.DelaySpeculativeLoadDeps && m.instMade > 4*tc.cfg.ROBSize {
				t.Errorf("%d instructions allocated for a %d-entry ROB: reuse is not happening",
					m.instMade, tc.cfg.ROBSize)
			}
		})
	}
}
