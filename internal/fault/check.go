package fault

import (
	"fmt"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/isa"
	"loopfrog/internal/ref"
)

// CheckOpts tune what Check compares. Memory is always compared in full; the
// zero value also compares the full register file, which is valid only for
// programs that normalise dead temporaries before halting (the hint contract
// does not preserve body temporaries — see workloads.Benchmark.NormalisedRegs).
type CheckOpts struct {
	// Regs lists the live-out registers to compare; nil means all of them.
	Regs []isa.Reg
}

// ResultRegs is the CheckOpts register set for compiled kernels: the ABI
// result register only.
func ResultRegs() []isa.Reg { return []isa.Reg{isa.X(10)} }

// Check compares a halted machine's architectural state against the
// sequential reference interpretation of prog, returning the first divergence
// ("" on an exact match). The machine may already be recycled: it keeps its
// final registers and memory. Check is the post-run verification behind lfsim
// -check and the chaos matrix (experiments.Chaos).
func Check(m *cpu.Machine, prog *asm.Program, opts CheckOpts) (string, error) {
	oracle, err := ref.Run(prog, ref.Options{})
	if err != nil {
		return "", fmt.Errorf("fault: reference run failed: %w", err)
	}
	return diffState(oracle, m, opts.Regs), nil
}

// diffState returns a description of the first register mismatch, or the
// memory diff, between the oracle and the halted machine. regs limits the
// register comparison; nil compares the full file.
func diffState(oracle *ref.Result, m *cpu.Machine, regs []isa.Reg) string {
	got := m.FinalRegs()
	if regs == nil {
		regs = make([]isa.Reg, isa.NumRegs)
		for r := range regs {
			regs[r] = isa.Reg(r)
		}
	}
	for _, r := range regs {
		if got[r] != oracle.Regs[r] {
			return fmt.Sprintf("reg %s = %#x, want %#x", r, got[r], oracle.Regs[r])
		}
	}
	if diff := oracle.Mem.Diff(m.Memory()); diff != "" {
		return "memory differs:\n" + diff
	}
	return ""
}
