package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fault"
	"loopfrog/internal/isa"
	"loopfrog/internal/lint"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

func randLoop(seed int64) *asm.Program {
	return workloads.RandomHintedLoop(rand.New(rand.NewSource(seed)))
}

// compileLint compiles one LoopLang program the way a serve source job is
// admitted, through CompileOpts and the lint preflight, timing both calls.
func compileLint(r *run, name, src string, opts compiler.Options) (*asm.Program, error) {
	sp := r.tr.start(0, "compiler", "compiler.CompileOpts", name, 0)
	prog, _, err := compiler.CompileOpts(name, src, opts)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	if err := preflight(r, prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func preflight(r *run, prog *asm.Program) error {
	sp := r.tr.start(0, "lint", "lint.Preflight", prog.Name, 0)
	_, err := lint.Preflight(prog)
	sp.end()
	if err != nil {
		return fmt.Errorf("preflight %s: %w", prog.Name, err)
	}
	return nil
}

// detailedJob is one full detailed simulation of the detailed workload.
type detailedJob struct {
	key  string // golden entry
	prog *asm.Program
	cfg  cpu.Config
	lf   bool
	// regs is the register set the LoopFrog run's final state is compared
	// on; nil compares the whole file (programs that normalise temporaries).
	regs []isa.Reg
	cost float64 // golden instruction count, for longest-first ordering
}

type detailedSetup struct {
	h    *sim.Harness
	jobs []*detailedJob
}

func setupDetailed(r *run) (*detailedSetup, error) {
	cfg := serveConfig(tune.Variant{})
	d := &detailedSetup{h: &sim.Harness{Workers: clients}}
	add := func(key string, prog *asm.Program, regs []isa.Reg) error {
		g, err := r.gold.get(key)
		if err != nil {
			return err
		}
		d.jobs = append(d.jobs,
			&detailedJob{key: key, prog: prog, cfg: sim.BaselineOf(cfg), cost: float64(g.Insts)},
			&detailedJob{key: key, prog: prog, cfg: cfg, lf: true, regs: regs, cost: float64(g.Insts)})
		return nil
	}
	for _, name := range quickSuite {
		b := findBench(name)
		prog, err := compileLint(r, name, b.Source(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		if err := add("full/"+name, prog, fault.ResultRegs()); err != nil {
			return nil, err
		}
	}
	for _, s := range detailedLoops(r.seed) {
		prog := randLoop(s)
		if err := preflight(r, prog); err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("rand/%d", s), prog, nil); err != nil {
			return nil, err
		}
	}
	// Longest first, so the two workers finish a pass close together.
	sort.SliceStable(d.jobs, func(i, j int) bool { return d.jobs[i].cost > d.jobs[j].cost })
	return d, nil
}

// runDetailed measures full detailed baseline and LoopFrog runs: whole passes
// over the job list, each job one Harness.RunJobs call made by one of two
// clients on a fresh harness with no run-cache.
func runDetailed(r *run) error {
	d, err := repeatSetup(r, func() (*detailedSetup, error) { return setupDetailed(r) }, func(*detailedSetup) {})
	if err != nil {
		return err
	}
	resetPeakRSS()
	var passes int
	var allocs allocSample
	for start := time.Now(); passes == 0 || time.Since(start) < r.dur; passes++ {
		wall, used := detailedPass(r, d, passes)
		r.setWall(passes, wall)
		r.markPeak(passes)
		allocs = allocs.plus(used)
	}
	r.info["passes"] = passes

	var ratios []float64
	for _, name := range quickSuite {
		g := r.gold["full/"+name]
		ratios = append(ratios, g.Base/g.LF)
	}
	r.layer["sim.geomean_speedup"] = sim.Geomean(ratios)
	if r.tr == nil {
		return nil
	}
	st := d.h.Stats()
	var insts float64
	var wall time.Duration
	for _, w := range r.windows {
		insts += w.insts
		wall += w.wall
	}
	if busy, _ := r.tr.total("cpu.Machine.Run"); busy > 0 {
		r.layer["cpu.minsts_per_s"] = insts / busy.Seconds() / 1e6
	}
	r.layer["cpu.allocs_per_inst"], r.layer["cpu.bytes_per_inst"], r.layer["cpu.gc_cpu_frac"] = allocRates(allocs, insts)
	r.layer["sim.utilization"] = float64(st.JobNanos) / (float64(clients) * float64(wall))
	if st.Jobs > 0 {
		r.layer["sim.window_ms"] = float64(st.JobNanos) / float64(st.Jobs) / 1e6
	}
	probeNewMachine(r, d.jobs)
	compileLintTimes(r)
	return nil
}

// detailedPass runs every job once and checks each result: cycles and
// instruction counts against golden.json, and every LoopFrog run's final
// architectural state against the sequential reference. It returns the
// pass's wall time and allocation counters, checks excluded.
func detailedPass(r *run, d *detailedSetup, pass int) (time.Duration, allocSample) {
	// A harness without a run-cache returns the machine's own Stats, which
	// keeps the machine reachable: copy the counters, and hold on to the
	// LoopFrog machines only, for the reference check after the pass.
	type outcome struct {
		st  cpu.Stats
		m   *cpu.Machine
		lat time.Duration
		err error
	}
	res := make([]outcome, len(d.jobs))
	sp := r.tr.start(0, benchLayer, "pass", fmt.Sprint(pass), 0)
	before := sampleAllocs()
	start := time.Now()
	closedLoop(len(d.jobs), time.Time{}, func(lane, i int) {
		j := d.jobs[i]
		id := fmt.Sprintf("p%d/%s/lf=%t", pass, j.key, j.lf)
		o := &res[i]
		call := r.tr.start(lane, "sim", "sim.Harness.RunJobs", id, sp.id())
		var machine *span
		job := sim.Job{Cfg: j.cfg, Prog: j.prog, Observe: func(m *cpu.Machine) {
			// A single-job RunJobs call runs on the caller's goroutine, so
			// the machine starts right after this hook returns.
			if j.lf {
				o.m = m
			}
			machine = r.tr.start(lane, "cpu", "cpu.Machine.Run", id, call.id())
		}}
		t0 := time.Now()
		stats, err := d.h.RunJobs([]sim.Job{job})
		o.lat = time.Since(t0)
		machine.end()
		call.end()
		o.err = err
		if err == nil {
			o.st = *stats[0]
		}
	})
	wall := time.Since(start)
	used := sampleAllocs().since(before)
	sp.end()

	for i, j := range d.jobs {
		o := res[i]
		err := o.err
		insts := 0.0
		if err == nil {
			insts = float64(o.st.ArchInsts)
			err = checkDetailed(r, j, &o.st, o.m)
		}
		r.done(pass, o.lat, insts, err)
	}
	return wall, used
}

func checkDetailed(r *run, j *detailedJob, st *cpu.Stats, m *cpu.Machine) error {
	g := r.gold[j.key]
	want, side := g.Base, "baseline"
	if j.lf {
		want, side = g.LF, "loopfrog"
	}
	if float64(st.Cycles) != want || st.ArchInsts != g.Insts {
		return fmt.Errorf("%s %s: %d cycles, %d insts; golden %.0f cycles, %d insts",
			j.key, side, st.Cycles, st.ArchInsts, want, g.Insts)
	}
	if !j.lf {
		return nil
	}
	sp := r.tr.start(0, "fault", "fault.Check", j.key, 0)
	diff, err := fault.Check(m, j.prog, fault.CheckOpts{Regs: j.regs})
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", j.key, err)
	}
	if diff != "" {
		return fmt.Errorf("%s: final state differs from the sequential reference: %s", j.key, diff)
	}
	return nil
}

// probeNewMachine times cpu.NewMachine once per job of the list, outside the
// measured passes.
func probeNewMachine(r *run, jobs []*detailedJob) {
	sp := r.tr.start(0, benchLayer, "probe", "new-machine", 0)
	defer sp.end()
	var total time.Duration
	for _, j := range jobs {
		call := r.tr.start(0, "cpu", "cpu.NewMachine", j.key, sp.id())
		t0 := time.Now()
		_, err := cpu.NewMachine(j.cfg, j.prog)
		total += time.Since(t0)
		call.end()
		r.check(err)
	}
	r.layer["cpu.new_machine_us"] = float64(total) / float64(len(jobs)) / 1e3
}

// compileLintTimes reports the mean compile and preflight call times of the
// run's spans.
func compileLintTimes(r *run) {
	if d, n := r.tr.total("compiler.CompileOpts"); n > 0 {
		r.layer["compiler.compile_ms"] = ms(d) / float64(n)
	}
	if d, n := r.tr.total("lint.Preflight"); n > 0 {
		r.layer["lint.preflight_ms"] = ms(d) / float64(n)
	}
}
