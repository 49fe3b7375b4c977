package cpu

// Sampled-simulation checkpoints. A Checkpoint is the machine-state snapshot
// the fast-functional tier (internal/fastsim) emits at a configurable
// instruction interval: the architectural state an uninterrupted run would
// have at that instruction, plus the warm microarchitectural state —
// branch-predictor tables and cache tags — that functional warming
// accumulated on the way there. A detailed Machine seeded from a checkpoint
// (NewMachineFromCheckpoint) simulates a window that starts in a realistic
// steady state instead of a cold one, which is what makes short sampled
// windows representative of the surrounding interval (SMARTS/SimPoint
// methodology; the paper's §6.1 weighting combines the window IPCs).
//
// Checkpoints are independent of each other, so one long program splits into
// N windows that the evaluation harness schedules across its worker pool —
// parallel-in-time simulation of a single run.

import (
	"loopfrog/internal/asm"
	"loopfrog/internal/bpred"
	"loopfrog/internal/core"
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
)

// Checkpoint is a machine-state snapshot at an architectural instruction
// boundary. It is cloned at capture time and treated as immutable afterwards;
// seeding clones again. The predictor, monitor and pack state are private
// deep copies. Mem shares its pages, and Hier its cache sets, copy-on-write
// with the state they were captured from and with every machine seeded from
// them, but they own none of them, so no write ever reaches them and
// cloning them mutates nothing (see mem.Memory and mem.Hierarchy.CloneAt).
// Any number of machines may therefore start from the same checkpoint
// concurrently, while tier 1 goes on running. Once the last of them is
// built, its owner may hand the predictor and hierarchy on (Recycle).
type Checkpoint struct {
	// PC is the instruction index execution resumes at.
	PC int
	// Insts is the number of dynamic instructions executed before this point
	// (the checkpoint's position in the run).
	Insts uint64
	// Regs is the architectural register file.
	Regs [isa.NumRegs]uint64
	// Mem is the architectural memory at the checkpoint.
	Mem *mem.Memory
	// BP, when non-nil, is warm branch-predictor state (tables shared, context
	// 0 history/RAS); nil seeds a cold predictor.
	BP *bpred.Predictor
	// Hier, when non-nil, is warm cache tag state rebased to cycle 0; nil
	// seeds cold caches.
	Hier *mem.Hierarchy

	// Region is the parallel region the sequential thread chain owns at the
	// checkpoint (the continuation address a detach locked onto and no sync
	// has released); <= 0 means none. Seeding it keeps a window's thread
	// chain attached to the same loop nest level as the uninterrupted run —
	// without it, a window inside a nested region would lock onto the inner
	// loop the full machine treats as hint NOPs and spawn pathologically.
	Region int64
	// Mon and Pack, when non-nil, are warm LoopFrog-engine adaptive state —
	// region-monitor charge/cooldown and pack-predictor training — built by
	// tier-1 functional warming. They carry far longer memory than any
	// affordable detailed warmup (a monitor cooldown alone can span millions
	// of instructions), so without them every window replays the engine's
	// cold-start honeymoon. They must have been warmed with the same
	// Monitor/Pack configuration the window config uses; nil seeds cold
	// engines.
	Mon  *core.RegionMonitor
	Pack *core.PackPredictor
}

// Recycle hands the checkpoint's predictor tables and cache set tables to
// the machines built after it (Machine.Recycle), once every machine to be
// seeded from it has been built. The checkpoint must not be used afterwards.
func (ck *Checkpoint) Recycle() {
	if ck.BP != nil {
		ck.BP.Recycle()
	}
	if ck.Hier != nil {
		ck.Hier.Recycle()
	}
}

// NewMachineFromCheckpoint builds a machine whose architectural state (PC,
// registers, memory) and warm microarchitectural state (predictor tables,
// cache tags) come from a tier-1 checkpoint. Combine with
// Config.MaxArchInsts and Config.WarmupInsts to simulate a bounded, measured
// window. Resuming with no instruction bound runs the remainder of the
// program to completion with the same architectural results as an
// uninterrupted run (the checkpoint-determinism property the sampled pipeline
// rests on).
func NewMachineFromCheckpoint(cfg Config, prog *asm.Program, ck *Checkpoint) (*Machine, error) {
	return newMachine(cfg, prog, ck)
}
