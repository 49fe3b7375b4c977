package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"loopfrog/internal/asm"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fault"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

// ChaosCell is one run of the chaos matrix: a program under one fault spec
// and seed, its final architectural state compared against the sequential
// reference interpreter. The first five fields are the request; RunChaos
// fills in the rest.
type ChaosCell struct {
	Workload string
	Prog     *asm.Program
	// Check scopes the comparison: compiled kernels compare the ABI result
	// register and memory, normalising programs the full register file.
	Check fault.CheckOpts
	Spec  string
	Seed  int64

	Cycles int64
	// Plan is the plan the machine ran with, its per-kind counters final
	// (nil for a clean spec).
	Plan *fault.Plan
	// Err is the run failure: a watchdog ProgressError, ErrCycleLimit, a
	// MemFault, or the harness's *sim.PanicError.
	Err error
	// Divergence is the first mismatch against the reference ("" on an
	// exact match, and for a failed run, which has no final state).
	Divergence string
}

// Injected is the number of faults the cell's plan injected.
func (c *ChaosCell) Injected() uint64 {
	var n uint64
	if c.Plan != nil {
		for _, k := range c.Plan.Counts() {
			n += k
		}
	}
	return n
}

// Ok reports whether the run completed and matched the reference.
func (c *ChaosCell) Ok() bool { return c.Err == nil && c.Divergence == "" }

// Chaos sweeps fault specs across workloads, one checked run per (workload,
// spec, seed) cell, rows in input order. It never stops at a failing cell,
// so a failure still yields a complete report.
func Chaos(cfg cpu.Config, benches []*workloads.Benchmark, specs []string, seeds []int64) ([]ChaosCell, error) {
	var cells []ChaosCell
	for _, b := range benches {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		opts := fault.CheckOpts{Regs: fault.ResultRegs()}
		if b.NormalisedRegs {
			opts = fault.CheckOpts{} // full register file
		}
		for _, spec := range specs {
			for _, seed := range seeds {
				cells = append(cells, ChaosCell{Workload: b.Name, Prog: prog, Check: opts, Spec: spec, Seed: seed})
			}
		}
	}
	return cells, RunChaos(cfg, cells)
}

// errPanicRetried fails a cell whose first attempt panicked even though the
// harness's retry then completed: the chaos matrix accepts only runs that
// finish cleanly the first time, so an order-dependent panic still fails it.
var errPanicRetried = errors.New("machine panicked; passed on retry")

// RunChaos runs every cell on cfg as one batch on a harness with no
// run-cache, so each cell's machine is built, observed and spread across
// the worker pool, then checks each completed run's final state. A panic
// (on the first attempt too, when the harness's retry completes) or a
// watchdog trip lands in its cell's Err; the error return is for a
// reference run that fails.
func RunChaos(cfg cpu.Config, cells []ChaosCell) error { return runChaos(cfg, cells, nil) }

// runChaos is RunChaos with observe, when non-nil, also called on every
// machine built for cell i, so a test can make one attempt panic.
func runChaos(cfg cpu.Config, cells []ChaosCell, observe func(i int, m *cpu.Machine)) error {
	machines := make([]*cpu.Machine, len(cells))
	attempts := make([]int, len(cells))
	jobs := make([]sim.Job, len(cells))
	for i, c := range cells {
		jobs[i] = sim.Job{Cfg: cfg, Prog: c.Prog, Faults: c.Spec, Seed: c.Seed,
			Observe: func(m *cpu.Machine) {
				machines[i] = m
				attempts[i]++
				if observe != nil {
					observe(i, m)
				}
			}}
	}
	h := &sim.Harness{Workers: sim.DefaultHarness().Workers}
	_, errs := h.RunJobsCtx(context.Background(), jobs)
	for i := range cells {
		c, m := &cells[i], machines[i]
		if c.Err = errs[i]; c.Err == nil && attempts[i] > 1 {
			c.Err = errPanicRetried
		}
		if m == nil { // the machine was never built
			continue
		}
		// A failed or panicked run leaves its partial statistics on the
		// machine.
		c.Cycles = m.Stats().Cycles
		c.Plan, _ = m.FaultInjector().(*fault.Plan)
		if c.Err != nil {
			continue
		}
		div, err := fault.Check(m, c.Prog, c.Check)
		if err != nil {
			return err
		}
		c.Divergence = div
	}
	return nil
}

// FormatChaos renders the cells one line each with a closing total, and
// returns the number of failed cells.
func FormatChaos(cells []ChaosCell) (string, int) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %6s %10s %9s  %s\n", "workload", "spec", "seed", "cycles", "injected", "result")
	failed := 0
	var injected uint64
	for i := range cells {
		c := &cells[i]
		result := "ok"
		if c.Err != nil {
			result = "ERROR: " + firstLine(c.Err.Error())
			failed++
		} else if c.Divergence != "" {
			result = "DIVERGED"
			failed++
		}
		n := c.Injected()
		injected += n
		fmt.Fprintf(&b, "%-16s %-12s %6d %10d %9d  %s\n", c.Workload, c.Spec, c.Seed, c.Cycles, n, result)
	}
	fmt.Fprintf(&b, "\n%d cells, %d faults injected, %d failures\n", len(cells), injected, failed)
	return b.String(), failed
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
