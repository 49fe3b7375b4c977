package cpu

import (
	"fmt"

	"loopfrog/internal/core"
)

// Fault-injection hook points. The speculation-safety argument (§3.1–§3.2)
// is that speculation is performance-only: any squash, overflow, or conflict
// abort leaves architectural state identical to sequential semantics. The
// hooks below let a driver force those recovery paths on purpose — a
// SpecFuzz-style adversarial workout — while a nil injector costs a single
// pointer test on each already-rare path.
//
// The interface is defined here with primitive-typed methods so implementors
// (internal/fault.Plan, test doubles) need not import this package.

// FaultInjector decides, deterministically for a given seed, which faults to
// inject and when. Every method is consulted at its hook point only while an
// injector is installed; each returns quickly when its fault kind is
// inactive. Implementations are single-run and need not be safe for
// concurrent use: the machine calls them from one goroutine.
type FaultInjector interface {
	// ForceConflict is consulted after a performed store whose conflict
	// check found no violation; returning true squash-restarts the oldest
	// speculative successor as a false-positive conflict abort.
	ForceConflict(now int64) bool
	// SuppressConflict is consulted when the conflict detector demands a
	// squash; returning true drops the squash — a conflict false negative.
	// The run then commits stale values, which the differential checker
	// must catch as a divergence (this is how the checker's teeth are
	// proven). Never injected by the "all" spec.
	SuppressConflict(now int64) bool
	// ForceOverflow is consulted before each speculative store drain;
	// returning true squash-restarts the draining threadlet as if its SSB
	// slice had overflowed.
	ForceOverflow(now int64) bool
	// KillThreadlet is consulted once per cycle while nspec (>= 1)
	// speculative threadlets are live; returning (k, true) recycles the
	// k-th youngest-order speculative threadlet (0 = oldest successor).
	KillThreadlet(now int64, nspec int) (k int, ok bool)
	// PoisonPack is consulted for each induction-variable register handed a
	// predicted start value at a packed spawn; returning (v, true) replaces
	// the prediction, which the §4.3 verification must later repair or
	// squash.
	PoisonPack(now int64, reg int, val uint64) (uint64, bool)
	// FlipBranch is consulted at each conditional-branch fetch; returning
	// true inverts the predicted direction, forcing a misprediction storm.
	FlipBranch(now int64, pc int) bool
	// Panic is consulted once per cycle; returning true makes the machine
	// panic deliberately, for exercising crash containment in harnesses.
	Panic(now int64) bool
}

// SetFaultInjector installs a fault injector (nil disables injection). The
// injector must be fresh for each run: its decision streams advance with the
// machine and are not rewound.
func (m *Machine) SetFaultInjector(inj FaultInjector) { m.inj = inj }

// FaultInjector returns the installed fault injector (nil when none). It
// stays readable after the run, so a caller holding the machine can read the
// injector's counters.
func (m *Machine) FaultInjector() FaultInjector { return m.inj }

// injectConflict applies the conflict-fault hooks to the outcome of one
// performed store's write check (Algorithm 1): a forced false positive aborts
// the oldest successor although no real conflict exists; a suppressed squash
// is a false negative that lets stale speculative values survive to
// commit — which the differential checker must then flag.
func (m *Machine) injectConflict(tid, victim int, squash bool) (int, bool) {
	if !squash && m.inj.ForceConflict(m.now) {
		if y := m.youngerThan(tid); len(y) > 0 {
			victim, squash = y[0], true
		}
	}
	if squash && m.inj.SuppressConflict(m.now) {
		squash = false
	}
	return victim, squash
}

// injectCycle runs the per-cycle hooks: deliberate panics and random
// threadlet kills. Called from cycle() only while an injector is installed.
func (m *Machine) injectCycle() {
	if m.inj.Panic(m.now) {
		panic(fmt.Sprintf("cpu: injected panic at cycle %d", m.now))
	}
	if nspec := len(m.order) - 1; nspec > 0 {
		if k, ok := m.inj.KillThreadlet(m.now, nspec); ok {
			if k < 0 || k >= nspec {
				k = 0
			}
			m.squashFrom(m.order[1+k], core.SquashExternal, false)
		}
	}
}
