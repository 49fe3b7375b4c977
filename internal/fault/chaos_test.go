package fault_test

// The chaos tests run on the simulation harness, like every other machine:
// experiments.RunChaos builds, fault-arms and runs each cell through
// sim.Harness and checks the observed machine with fault.Check.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/experiments"
	"loopfrog/internal/fault"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

// runChecked runs prog under spec and seed as a one-cell chaos matrix,
// comparing the full register file and all of memory.
func runChecked(t testing.TB, prog *asm.Program, spec string, seed int64) *experiments.ChaosCell {
	t.Helper()
	cells := []experiments.ChaosCell{{Workload: prog.Name, Prog: prog, Spec: spec, Seed: seed}}
	if err := experiments.RunChaos(cpu.DefaultConfig(), cells); err != nil {
		t.Fatal(err)
	}
	return &cells[0]
}

// conflictLoop builds a hinted loop where every iteration read-modify-writes
// one shared cell: each speculative successor reads the cell before its
// parent's store performs, so real conflicts (and squash-restarts) occur
// every epoch. It is the workload for proving the checker's teeth.
func conflictLoop() *asm.Program {
	return asm.MustAssemble("conflictloop", `
        .data
cell:   .quad 0
        .text
main:   la   a0, cell
        li   t0, 0
        li   t1, 64
loop:   detach cont
        ld   t2, 0(a0)
        addi t2, t2, 1
        sd   t2, 0(a0)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        li   t2, 0
        halt
`)
}

// TestConflictLoopCleanBaseline confirms the teeth workload itself is
// contract-correct: with no injection the machine matches the reference.
func TestConflictLoopCleanBaseline(t *testing.T) {
	c := runChecked(t, conflictLoop(), "", 1)
	if !c.Ok() {
		t.Fatalf("clean run failed: err=%v divergence=%s", c.Err, c.Divergence)
	}
}

// TestConflictFalseNegativeIsCaught proves the differential checker has
// teeth: suppressing real conflict squashes (a conflict false negative) must
// surface as a state divergence, never as a silent pass.
func TestConflictFalseNegativeIsCaught(t *testing.T) {
	c := runChecked(t, conflictLoop(), "conflict-miss", 1)
	if c.Plan.Count(fault.ConflictMiss) == 0 {
		t.Fatal("no conflicts were suppressed: workload produced no real conflicts")
	}
	if c.Err != nil {
		t.Fatalf("run errored instead of diverging: %v", c.Err)
	}
	if c.Divergence == "" {
		t.Fatal("suppressed conflicts did not diverge: the differential checker has no teeth")
	}
	t.Logf("caught: %s (%d suppressions)", firstLine(c.Divergence), c.Plan.Count(fault.ConflictMiss))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestChaosMatrix is the seeded fault matrix: every safe kind (and their
// combination) across the chaos workload suite, multiple seeds. Every
// injected run must complete and match the sequential reference exactly.
func TestChaosMatrix(t *testing.T) {
	specs := []string{"conflict", "overflow", "kill", "poison", "mispredict", "all"}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	cells, err := experiments.Chaos(cpu.DefaultConfig(), workloads.ChaosSuite(), specs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(specs) * len(seeds) * len(workloads.ChaosSuite()); len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	injected := uint64(0)
	for i := range cells {
		c := &cells[i]
		injected += c.Injected()
		if !c.Ok() {
			t.Errorf("%s/%s/seed=%d: err=%v divergence=%q", c.Workload, c.Spec, c.Seed, c.Err, c.Divergence)
		}
	}
	if injected == 0 {
		t.Fatal("matrix injected no faults at all")
	}
}

// TestDeterminism: the same spec and seed must reproduce the identical run —
// same cycle count and same injection counters.
func TestDeterminism(t *testing.T) {
	prog := workloads.ByName(workloads.ChaosSuite(), "chaos-randloop").MustProgram()
	run := func() (int64, map[string]uint64) {
		c := runChecked(t, prog, "all", 42)
		if !c.Ok() {
			t.Fatalf("run failed: err=%v divergence=%s", c.Err, c.Divergence)
		}
		return c.Cycles, c.Plan.Counts()
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 {
		t.Errorf("cycles differ: %d vs %d", c1, c2)
	}
	if len(i1) != len(i2) {
		t.Fatalf("injection counters differ: %v vs %v", i1, i2)
	}
	for k, v := range i1 {
		if i2[k] != v {
			t.Errorf("injection counter %s differs: %d vs %d", k, v, i2[k])
		}
	}
}

// TestPanicContainment: an injected panic must be recovered into the cell's
// error as the harness's *sim.PanicError, not propagate out of the run.
func TestPanicContainment(t *testing.T) {
	prog := workloads.ChaosSuite()[0].MustProgram()
	c := runChecked(t, prog, "panic=1", 1)
	var pe *sim.PanicError
	if !errors.As(c.Err, &pe) {
		t.Fatalf("panic plan produced no *sim.PanicError: %v", c.Err)
	}
	if !strings.Contains(pe.Error(), "injected panic") {
		t.Errorf("unexpected run error: %v", pe)
	}
}

// FuzzChaosDifferential drives random safe fault plans against random
// contract-correct hinted loops: whatever the combination, the machine must
// recover to exact sequential semantics.
func FuzzChaosDifferential(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0x1f))
	f.Add(int64(7), int64(99), uint8(0x01))
	f.Add(int64(1234), int64(5), uint8(0x0a))
	f.Add(int64(31), int64(8), uint8(0x15))
	// Regression: conflict+poison once exposed the pack-verify repair-escape
	// hazard (a repaired IV had already been copied into a grandchild spawn).
	f.Add(int64(-298), int64(139), uint8('I'))
	f.Fuzz(func(t *testing.T, progSeed, planSeed int64, kindMask uint8) {
		var kinds []string
		for i, k := range fault.SafeKinds() {
			if kindMask&(1<<i) != 0 {
				kinds = append(kinds, k.String())
			}
		}
		if len(kinds) == 0 {
			return
		}
		prog := workloads.RandomHintedLoop(rand.New(rand.NewSource(progSeed)))
		spec := strings.Join(kinds, ",")
		c := runChecked(t, prog, spec, planSeed)
		if c.Err != nil {
			t.Fatalf("spec %q seed %d: run error: %v", spec, planSeed, c.Err)
		}
		if c.Divergence != "" {
			t.Fatalf("spec %q seed %d: diverged from reference: %s", spec, planSeed, c.Divergence)
		}
	})
}
