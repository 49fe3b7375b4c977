// Package fastsim is the fast-functional tier of the two-tier sampled
// simulation pipeline: a lean, predecoded dispatch loop that executes LFISA
// at tens of millions of instructions per second while *warming*
// microarchitectural state — branch-predictor tables, L1/L2 cache tags — and
// carrying the architectural register file and memory.
//
// Like the reference interpreter (internal/ref) it executes strictly
// sequentially with hints as NOPs, which is the architectural semantics of a
// hinted binary; its final state is bit-identical to ref.Run's. Unlike ref it
// runs over the shared PC-indexed predecoded image (asm.Program.Decoded, the
// same machinery the out-of-order front end uses), models a pseudo-clock of
// one cycle per instruction to order cache fills and LRU state, and emits
// cpu.Checkpoint snapshots at a configurable instruction interval. The
// detailed model then simulates only short windows seeded from those
// checkpoints — tier 2 of the pipeline (internal/sim's sampling driver).
package fastsim

import (
	"errors"
	"fmt"

	"loopfrog/internal/asm"
	"loopfrog/internal/bpred"
	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
)

// ErrStepLimit is returned when a program fails to halt within the budget.
var ErrStepLimit = errors.New("fastsim: step limit exceeded")

// DefaultMaxSteps mirrors the reference interpreter's dynamic budget.
const DefaultMaxSteps = 500_000_000

// Options configure a fast-functional run.
type Options struct {
	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps uint64
	// CheckpointEvery emits a checkpoint before executing instruction 0,
	// CheckpointEvery, 2*CheckpointEvery, ...; 0 disables checkpointing.
	CheckpointEvery uint64
	// CheckpointLead shifts every checkpoint after the first to LEAD its
	// interval boundary: positions become k*CheckpointEvery - CheckpointLead.
	// A sampling driver that runs CheckpointLead instructions of detailed
	// warmup from each checkpoint then starts measuring exactly at the
	// interval boundary, so measured slices align with the intervals they
	// stand for. Must be less than CheckpointEvery.
	CheckpointLead uint64
	// BPred, when non-nil, warms a branch predictor with this configuration:
	// every conditional branch runs a predict/update round exactly as the
	// detailed front end and commit stages would, calls and returns maintain
	// the RAS, and indirect jumps train the BTB.
	BPred *bpred.Config
	// Hier, when non-nil, warms cache tag state with this configuration:
	// loads, stores and instruction fetches probe the hierarchy on the
	// pseudo-clock, so tags, MSHR history and stride-prefetcher state reach a
	// realistic steady state.
	Hier *mem.HierConfig
	// LF, when non-nil (and Threadlets >= 2), warms the LoopFrog engine's
	// adaptive state — region-monitor health and pack-predictor training —
	// by replaying the thread chain's hint automaton over the sequential
	// stream (lfwarm.go). Checkpoints then carry the warm engine plus the
	// owned region, so detailed windows start mid-stride instead of
	// replaying the engine's cold-start honeymoon.
	LF *LFWarm
}

// Result is the final state of a fast-functional run.
type Result struct {
	// Regs holds the final register file; Mem the final memory; DynInsts the
	// dynamic instruction count — all bit-identical to ref.Run on the same
	// program.
	Regs     [isa.NumRegs]uint64
	Mem      *mem.Memory
	DynInsts uint64
	// Checkpoints are the emitted snapshots, in instruction order (none
	// under Stream, which hands them out instead).
	Checkpoints []*cpu.Checkpoint
}

// instBytesForICache mirrors the detailed front end's assumed instruction
// footprint for I-cache timing.
const instBytesForICache = 4

// Run executes the program to completion, warming predictor/cache state and
// emitting checkpoints per opts.
func Run(p *asm.Program, opts Options) (*Result, error) {
	res := &Result{}
	return run(p, opts, nil, res, res.collect)
}

// Resume executes the remainder of the program from a checkpoint. Warming
// state continues from the checkpoint's (when present there and configured in
// opts) or starts cold. Result.DynInsts and checkpoint positions count from
// the resume point, not from program start.
func Resume(p *asm.Program, ck *cpu.Checkpoint, opts Options) (*Result, error) {
	res := &Result{}
	return run(p, opts, ck, res, res.collect)
}

// Stream is Run handing each checkpoint to emit as soon as it is taken,
// instead of collecting them in Result.Checkpoints, so a consumer can start
// on a checkpoint while the run goes on. A checkpoint is immutable once
// emitted and safe to read from any goroutine. An error from emit stops the
// run, and Stream returns it.
func Stream(p *asm.Program, opts Options, emit func(*cpu.Checkpoint) error) (*Result, error) {
	return run(p, opts, nil, &Result{}, emit)
}

func (res *Result) collect(ck *cpu.Checkpoint) error {
	res.Checkpoints = append(res.Checkpoints, ck)
	return nil
}

func run(p *asm.Program, opts Options, start *cpu.Checkpoint, res *Result, emit func(*cpu.Checkpoint) error) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	var bp *bpred.Predictor
	if opts.BPred != nil {
		if start != nil && start.BP != nil {
			bp = start.BP.CloneFor(1)
		} else {
			bp = bpred.New(*opts.BPred, 1)
		}
	}
	var hier *mem.Hierarchy
	if opts.Hier != nil {
		if start != nil && start.Hier != nil {
			hier = start.Hier.CloneAt(0)
		} else {
			hier = mem.NewHierarchy(*opts.Hier)
		}
	}
	var lf *lfState
	if opts.LF != nil && opts.LF.Threadlets >= 2 {
		if start != nil {
			var mon *core.RegionMonitor
			var pack *core.PackPredictor
			if start.Mon != nil {
				mon = start.Mon.Clone()
			}
			if start.Pack != nil {
				pack = start.Pack.Clone()
			}
			lf = newLFState(opts.LF, mon, pack)
			if start.Region > 0 {
				lf.region = start.Region
			}
		} else {
			lf = newLFState(opts.LF, nil, nil)
		}
	}
	regs := &res.Regs
	if start != nil {
		res.Mem = start.Mem.Clone()
		res.Regs = start.Regs
	} else {
		res.Mem = mem.NewMemory()
		res.Mem.LoadProgram(p)
		regs[isa.X(2)] = asm.DefaultStackTop // sp
	}

	code := p.Decoded()
	n := len(code)
	pc := p.Entry
	if start != nil {
		pc = start.PC
	}
	var now int64 // pseudo-clock: one cycle per instruction
	var lineTag uint64
	lineValid := false
	nextCkpt := uint64(0)
	if opts.CheckpointEvery == 0 {
		nextCkpt = ^uint64(0)
	}
	for res.DynInsts < maxSteps {
		if pc < 0 || pc >= n {
			return nil, fmt.Errorf("fastsim: pc %d out of range [0,%d) after %d instructions", pc, n, res.DynInsts)
		}
		if res.DynInsts == nextCkpt {
			if err := emit(checkpoint(pc, res, bp, hier, now, lf)); err != nil {
				return nil, err
			}
			if nextCkpt == 0 && opts.CheckpointLead > 0 && opts.CheckpointLead < opts.CheckpointEvery {
				nextCkpt = opts.CheckpointEvery - opts.CheckpointLead
			} else {
				nextCkpt += opts.CheckpointEvery
			}
		}
		if hier != nil {
			// Instruction-side warming, one probe per line like the front end.
			tag := uint64(pc*instBytesForICache) / uint64(opts.Hier.L1I.LineBytes)
			if !lineValid || tag != lineTag {
				hier.Fetch(uint64(pc*instBytesForICache), now)
				lineTag, lineValid = tag, true
			}
		}
		d := &code[pc]
		inst := d.Inst
		meta := d.Meta
		res.DynInsts++
		now++
		next := pc + 1
		switch {
		case inst.Op == isa.HALT:
			regs[0] = 0
			return res, nil
		case meta.IsHint:
			// Architectural NOPs; the LF-warm automaton replays the engine's
			// view of them.
			if lf != nil {
				lf.epochInsts++
				lf.hint(inst.Op, inst.Imm, regs)
			}
		case inst.Op == isa.NOP:
			if lf != nil {
				lf.epochInsts++
			}
		case meta.IsLoad:
			addr := regs[inst.Rs1] + uint64(inst.Imm)
			raw := res.Mem.Read(addr, meta.MemBytes)
			if lf != nil {
				lf.epochInsts++
				if lf.region != 0 {
					lf.observeRegs(&inst, meta)
				}
			}
			setReg(regs, inst.Rd, isa.ExtendLoad(inst.Op, raw))
			if hier != nil {
				hier.Load(pc, addr, now)
			}
		case meta.IsStore:
			addr := regs[inst.Rs1] + uint64(inst.Imm)
			res.Mem.Write(addr, meta.MemBytes, regs[inst.Rs2])
			if lf != nil {
				lf.epochInsts++
				if lf.region != 0 {
					lf.observeRegs(&inst, meta)
					lf.observeStore(addr)
				}
			}
			if hier != nil {
				hier.Store(addr, now)
			}
		case meta.IsBranch:
			taken := isa.BranchTaken(inst.Op, regs[inst.Rs1], regs[inst.Rs2])
			if taken {
				next = int(inst.Imm)
			}
			if lf != nil {
				lf.epochInsts++
				if lf.region != 0 {
					lf.observeRegs(&inst, meta)
				}
			}
			if bp != nil {
				// The same predict → (mispredict repair) → train round the
				// detailed machine runs at fetch, execute and commit.
				st := bp.PredictBranch(0, pc)
				if st.Taken != taken {
					bp.OnSquash(0, st.Hist, taken)
				}
				bp.UpdateBranch(0, pc, taken, st)
			}
		case inst.Op == isa.JAL:
			if lf != nil {
				lf.epochInsts++
				if lf.region != 0 {
					lf.observeRegs(&inst, meta)
				}
			}
			setReg(regs, inst.Rd, uint64(pc+1))
			next = int(inst.Imm)
			if bp != nil && bpred.IsCall(inst) {
				bp.PushRAS(0, pc+1)
			}
		case inst.Op == isa.JALR:
			target := int(regs[inst.Rs1] + uint64(inst.Imm))
			if lf != nil {
				lf.epochInsts++
				if lf.region != 0 {
					lf.observeRegs(&inst, meta)
				}
			}
			setReg(regs, inst.Rd, uint64(pc+1))
			next = target
			if bp != nil {
				switch {
				case bpred.IsReturn(inst):
					bp.PopRAS(0)
				case bpred.IsCall(inst):
					bp.PushRAS(0, pc+1)
				}
				bp.UpdateIndirect(pc, target)
			}
		default:
			if lf != nil {
				lf.epochInsts++
				if lf.region != 0 {
					lf.observeRegs(&inst, meta)
				}
			}
			setReg(regs, inst.Rd, isa.EvalALU(inst, regs[inst.Rs1], regs[inst.Rs2]))
		}
		pc = next
	}
	return nil, fmt.Errorf("%w (%d)", ErrStepLimit, maxSteps)
}

// checkpoint captures an immutable snapshot of the current state. The memory
// and cache clones copy only the page and set tables: the live memory and
// caches then own none of their pages and sets, and their next write to
// each copies that page or set once. The predictor, monitor and pack state
// are copied whole.
func checkpoint(pc int, res *Result, bp *bpred.Predictor, hier *mem.Hierarchy, now int64, lf *lfState) *cpu.Checkpoint {
	ck := &cpu.Checkpoint{
		PC:    pc,
		Insts: res.DynInsts,
		Regs:  res.Regs,
		Mem:   res.Mem.Clone(),
	}
	if bp != nil {
		ck.BP = bp.CloneFor(1)
	}
	if hier != nil {
		ck.Hier = hier.CloneAt(now)
	}
	if lf != nil {
		ck.Region = lf.region
		ck.Mon = lf.mon.Clone()
		ck.Pack = lf.pack.Clone()
	}
	return ck
}

func setReg(regs *[isa.NumRegs]uint64, r isa.Reg, v uint64) {
	if r == isa.X0 {
		return
	}
	regs[r] = v
}
