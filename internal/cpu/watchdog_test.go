package cpu

import (
	"errors"
	"testing"

	"loopfrog/internal/asm"
)

// stuckEpochSrc detaches a successor and then spins forever inside the body
// without ever reaching its reattach: the architectural threadlet keeps
// committing (so the no-commit check stays quiet) while its speculative
// successors can never be promoted — the stuck-epoch livelock shape. The spin
// is a serial divide chain so the livelocked cycles are mostly pipeline
// stalls, keeping the test's wall time low without changing the shape.
const stuckEpochSrc = `
        .text
main:   li   t0, 0
        li   t3, 1
loop:   detach cont
spin:   div  t1, t1, t3
        j    spin
        reattach cont
cont:   addi t0, t0, 1
        li   t2, 8
        blt  t0, t2, loop
        sync cont
        halt
`

// TestWatchdogStuckEpoch: a deliberately livelocked program must fail fast
// with a typed ProgressError under the default watchdog thresholds, orders of
// magnitude before the 200M-cycle limit.
func TestWatchdogStuckEpoch(t *testing.T) {
	prog := asm.MustAssemble("stuck", stuckEpochSrc)
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	var pe *ProgressError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProgressError", err)
	}
	if !errors.Is(err, ErrNoProgress) {
		t.Error("ProgressError does not wrap ErrNoProgress")
	}
	if pe.Kind != ProgressStuckEpoch {
		t.Errorf("kind = %s, want stuck-epoch", pe.Kind)
	}
	if st.Cycles >= 10_000_000 {
		t.Errorf("watchdog tripped only after %d cycles — not fast failure", st.Cycles)
	}
	// The snapshot must be usable for diagnosis: the epoch order, per-context
	// state, and a dominant stall class.
	snap := pe.Snapshot
	if len(snap.Order) < 2 {
		t.Errorf("snapshot order %v does not show the waiting successors", snap.Order)
	}
	if len(snap.Contexts) != DefaultConfig().Threadlets {
		t.Errorf("snapshot has %d contexts, want %d", len(snap.Contexts), DefaultConfig().Threadlets)
	}
	if snap.DominantStall == "" {
		t.Error("snapshot carries no dominant stall class")
	}
	if pe.Error() == "" || snap.String() == "" {
		t.Error("diagnostics render empty")
	}
}

// conflictStorm forces a false-positive conflict abort on every performed
// store, driving the squash-restart loop the livelock detector watches.
type conflictStorm struct{}

func (conflictStorm) ForceConflict(int64) bool                     { return true }
func (conflictStorm) SuppressConflict(int64) bool                  { return false }
func (conflictStorm) ForceOverflow(int64) bool                     { return false }
func (conflictStorm) KillThreadlet(int64, int) (int, bool)         { return 0, false }
func (conflictStorm) PoisonPack(int64, int, uint64) (uint64, bool) { return 0, false }
func (conflictStorm) FlipBranch(int64, int) bool                   { return false }
func (conflictStorm) Panic(int64) bool                             { return false }

// squashStormSrc is a hinted loop whose body performs a burst of stores, so a
// conflict-storm injector restarts the successor many times within a single
// architectural epoch.
const squashStormSrc = `
        .data
out:    .zero 64
        .text
main:   la   a0, out
        li   t0, 0
        li   t1, 32
loop:   detach cont
        sd   t0, 0(a0)
        sd   t0, 8(a0)
        sd   t0, 16(a0)
        sd   t0, 24(a0)
        sd   t0, 32(a0)
        sd   t0, 40(a0)
        sd   t0, 48(a0)
        sd   t0, 56(a0)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        halt
`

// TestWatchdogSquashLivelock: repeated squash-restarts of the same epoch
// start PC without an intervening retire must trip the squash-livelock
// detector once the (lowered) restart limit is crossed.
func TestWatchdogSquashLivelock(t *testing.T) {
	prog := asm.MustAssemble("storm", squashStormSrc)
	cfg := DefaultConfig()
	cfg.Watchdog.RestartLimit = 4
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultInjector(conflictStorm{})
	st, err := m.Run()
	var pe *ProgressError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProgressError", err)
	}
	if pe.Kind != ProgressSquashLivelock {
		t.Errorf("kind = %s, want squash-livelock", pe.Kind)
	}
	if pe.Snapshot.RestartStreak < 4 {
		t.Errorf("restart streak = %d, want >= 4", pe.Snapshot.RestartStreak)
	}
	if st.Cycles >= 1_000_000 {
		t.Errorf("livelock detected only after %d cycles", st.Cycles)
	}
}

// TestErrCycleLimit: with every watchdog threshold set beyond the cycle
// budget, a non-terminating but committing program runs to that budget and
// returns ErrCycleLimit with the partial statistics.
func TestErrCycleLimit(t *testing.T) {
	prog := asm.MustAssemble("forever", `
        .text
main:   addi t0, t0, 1
        j    main
`)
	cfg := DefaultConfig()
	cfg.MaxCycles = 20_000
	cfg.Watchdog = WatchdogConfig{
		NoCommitWindow: 2 * cfg.MaxCycles,
		EpochWindow:    2 * cfg.MaxCycles,
		RestartLimit:   int(2 * cfg.MaxCycles),
	}
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if st.Cycles < 20_000 || st.ArchInsts == 0 {
		t.Errorf("partial stats implausible: %d cycles, %d insts", st.Cycles, st.ArchInsts)
	}

	// The same livelocked program that trips the watchdog must also be caught
	// by the cycle limit when no watchdog threshold can fire first — the
	// blunt backstop.
	stuck := asm.MustAssemble("stuck", stuckEpochSrc)
	m2, err := NewMachine(cfg, stuck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("livelock under out-of-reach thresholds: err = %v, want ErrCycleLimit", err)
	}
}

// TestMemFaultStore: an architecturally-reached misaligned store must surface
// as a typed MemFault from Run, not a panic out of the memory model.
func TestMemFaultStore(t *testing.T) {
	prog := asm.MustAssemble("badstore", `
        .text
main:   li   a0, 3
        li   t0, 7
        sd   t0, 0(a0)
        halt
`)
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var mf *MemFault
	if !errors.As(err, &mf) {
		t.Fatalf("err = %v, want MemFault", err)
	}
	if mf.Addr != 3 || mf.Size != 8 {
		t.Errorf("fault at addr %#x size %d, want 0x3 size 8", mf.Addr, mf.Size)
	}
}

// TestMemFaultLoad: a committed misaligned load faults the same way.
func TestMemFaultLoad(t *testing.T) {
	prog := asm.MustAssemble("badload", `
        .text
main:   li   a0, 5
        ld   t1, 0(a0)
        halt
`)
	m, err := NewMachine(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var mf *MemFault
	if !errors.As(err, &mf) {
		t.Fatalf("err = %v, want MemFault", err)
	}
	if mf.Addr != 5 || mf.Size != 8 {
		t.Errorf("fault at addr %#x size %d, want 0x5 size 8", mf.Addr, mf.Size)
	}
}
