package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
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

// checkInstOwners checks that every instruction slot the machine made
// (Machine.slots) has exactly one owner: a threadlet's ROB or drain queue,
// the scheduler queue holding it after a squash, or the free list. An
// instruction with no owner leaked (a free site was skipped); one with two
// was freed while still reachable. A live instruction may sit in one
// scheduler queue besides its ROB, but never in two. A free instruction
// must link to no other and hold no checkpoint slot, and every node of the
// waiter pool must be on exactly one producer's list or the free list.
func checkInstOwners(t *testing.T, m *Machine, when string) {
	t.Helper()
	owner := make(map[instRef]string, len(m.slots))
	own := func(h instRef, where string) {
		if prev, ok := owner[h]; ok {
			t.Fatalf("%s: instruction at pc %d held by both %s and %s", when, m.at(h).pc, prev, where)
		}
		owner[h] = where
	}
	for _, th := range m.threads {
		for _, h := range th.rob.items() {
			own(h, fmt.Sprintf("rob %d", th.id))
		}
		for _, h := range th.drain.items() {
			own(h, fmt.Sprintf("drain %d", th.id))
		}
	}
	queued := make(map[instRef]string)
	scan := func(q []instRef, name string) {
		for _, h := range q {
			if prev, ok := queued[h]; ok {
				t.Fatalf("%s: instruction at pc %d queued in both %s and %s", when, m.at(h).pc, prev, name)
			}
			queued[h] = name
			if m.at(h).squashed {
				own(h, name)
			}
		}
	}
	for c := range m.readyQ {
		scan(m.readyQ[c].items(), fmt.Sprintf("ready queue %d", c))
	}
	var executing []instRef
	for _, x := range m.executing.items() {
		executing = append(executing, x.h)
	}
	scan(executing, "executing list")
	scan(m.replayQ.items(), "replay queue")
	scan(m.delayedWake.items(), "delayed-wake list")
	for _, h := range m.instFree.items() {
		own(h, "free list")
		// newInst reuses the links without clearing them (dynInst).
		if e := m.at(h); e.srcProd != [2]instRef{} || e.oldMap.prod != 0 || e.nWait != 0 || e.waitHead != 0 || e.ckptWaited {
			t.Fatalf("%s: free instruction from pc %d still links to other instructions", when, e.pc)
		}
	}
	if held := len(owner); held != len(m.slots) {
		t.Fatalf("%s: %d instruction slots made, %d accounted for", when, len(m.slots), held)
	}
	nodes := 0
	for n := m.waitFree; n != 0; n = m.waitNodes[n].next {
		nodes++
	}
	for i := 1; i <= len(m.slots); i++ {
		for n := m.at(instRef(i)).waitHead; n != 0; n = m.waitNodes[n].next {
			nodes++
		}
	}
	if nodes != len(m.waitNodes)-1 {
		t.Fatalf("%s: %d waiter nodes made, %d on lists", when, len(m.waitNodes)-1, nodes)
	}
	for _, cw := range m.ckptWaits.items() {
		if !m.at(cw.prod).ckptWaited {
			t.Fatalf("%s: checkpoint slot t%d r%d names a producer not marked as filling one", when, cw.tid, cw.reg)
		}
	}
}

// pointerPath returns the path to the first Go pointer t holds (a pointer,
// slice, map, string, interface, channel or function), or "" when it holds
// none.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return t.String()
	case reflect.Array:
		if p := pointerPath(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return t.Field(i).Name + "." + p
			}
		}
	}
	return ""
}

// TestHotTypesHoldNoPointers checks that the instruction window's element
// types hold no Go pointer, so that the collector never scans them and no
// pipeline write takes a write barrier (DESIGN.md, "Instruction lifetime").
func TestHotTypesHoldNoPointers(t *testing.T) {
	for _, v := range []any{
		dynInst{}, mapEntry{}, memRec{}, fetchEntry{},
		instRef(0), execRef{}, waitNode{}, ckptWait{},
	} {
		if p := pointerPath(reflect.TypeOf(v)); p != "" {
			t.Errorf("%T holds a pointer: %s", v, p)
		}
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
// of instructions ever allocated near the window size, in the
// speculative-leak configurations too.
func TestInstRecycleAccounting(t *testing.T) {
	cpu2017 := workloads.CPU2017()
	leela := workloads.ByName(cpu2017, "leela").MustProgram()
	mcf := workloads.ByName(cpu2017, "mcf").MustProgram()
	branchy := workloads.ByName(workloads.ChaosSuite(), "chaos-branchy").MustProgram()
	detect := DefaultConfig()
	detect.SpectreAnalysis = true
	mitigated := detect
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
		{"boundsbypass/detect", detect, securityProg(t, "boundsbypass"), false},
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
			t.Logf("%d cycles, %d committed, %d insts allocated, %d waiter nodes; squashes %v",
				st.Cycles, st.CommitSlotsUsed, len(m.slots), len(m.waitNodes)-1, st.Squashes)
			switch {
			case tc.inject:
				if st.Squashes[core.SquashOverflow] == 0 || st.Squashes[core.SquashConflict] == 0 {
					t.Errorf("injector forced no overflow or no conflict squash: %v", st.Squashes)
				}
			case tc.cfg.DelaySpeculativeLoadDeps:
				if st.DelayedWakes == 0 {
					t.Errorf("mitigated run held no wakeups")
				}
			}
			if len(m.slots) > 4*tc.cfg.ROBSize {
				t.Errorf("%d instructions allocated for a %d-entry ROB: reuse is not happening",
					len(m.slots), tc.cfg.ROBSize)
			}
		})
	}
}

// TestRecycleKeepsResultsExact runs programs on fresh machines, then twice
// more machine after machine, each recycled (Recycle) before the next is
// built, so that later machines take their instruction slots, threadlet
// contexts, predictor tables and cache set tables from the pools the
// earlier ones left. Every run must match the fresh machine's, field for
// field; a recycled machine must keep its final registers and refuse to run
// again.
func TestRecycleKeepsResultsExact(t *testing.T) {
	cpu2017 := workloads.CPU2017()
	progs := []*asm.Program{
		workloads.ByName(cpu2017, "mcf").MustProgram(),
		workloads.ByName(cpu2017, "leela").MustProgram(),
		securityProg(t, "boundsbypass"),
	}
	detect := DefaultConfig()
	detect.SpectreAnalysis = true
	cfgs := []Config{DefaultConfig(), BaselineConfig(), detect}
	want := map[[2]int]Stats{}
	for round := 0; round < 3; round++ {
		for pi, prog := range progs {
			for ci, cfg := range cfgs {
				m, err := NewMachine(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := *st
				got.Regions = nil
				regs := m.FinalRegs()
				if round == 0 {
					want[[2]int{pi, ci}] = got
				} else if w := want[[2]int{pi, ci}]; !reflect.DeepEqual(got, w) {
					t.Errorf("%s, config %d: stats after recycling differ:\n got %+v\nwant %+v", prog.Name, ci, got, w)
				}
				if round == 0 {
					continue // nothing reaches the pools before round 1
				}
				m.Recycle()
				// Build the next machine first, so that it takes this one's
				// threadlets before FinalRegs is read again.
				next, err := NewMachine(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				if m.FinalRegs() != regs {
					t.Errorf("%s: final registers changed by Recycle", prog.Name)
				}
				next.Recycle()
				if _, err := m.Run(); err == nil {
					t.Fatalf("%s: a recycled machine ran again", prog.Name)
				}
			}
		}
	}
}
