package main

import (
	"fmt"
	"time"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/fastsim"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

type sampledSetup struct {
	h     *sim.Harness
	names []string
	progs map[string]*asm.Program
}

func setupSampled(r *run) (*sampledSetup, error) {
	s := &sampledSetup{h: &sim.Harness{Workers: clients}, progs: map[string]*asm.Program{}}
	var names []string
	for _, b := range workloads.CPU2017() {
		prog, err := compileLint(r, b.Name, b.Source(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		s.progs[b.Name] = prog
		names = append(names, b.Name)
	}
	s.names = sampledOrder(r.seed, names)
	return s, nil
}

// runSampled measures rung-0 sampled A/B estimates of the whole CPU2017
// suite: whole passes of sequential Harness.RunSampledAB calls on a fresh
// two-worker harness with no run-cache, each fanning its windows over the
// pool.
func runSampled(r *run) error {
	s, err := repeatSetup(r, func() (*sampledSetup, error) { return setupSampled(r) }, func(*sampledSetup) {})
	if err != nil {
		return err
	}
	cfg := serveConfig(tune.Variant{})
	sc := *tune.Tiers()[0].Sample
	before := sampleAllocs()
	resetPeakRSS()
	var passes int
	var detailedInsts, insts float64
	var wall time.Duration
	var speedups, errs []float64
	for start := time.Now(); passes == 0 || time.Since(start) < r.dur; passes++ {
		sp := r.tr.start(0, benchLayer, "pass", fmt.Sprint(passes), 0)
		var passWall time.Duration
		for _, name := range s.names {
			call := r.tr.start(0, "sim", "sim.Harness.RunSampledAB", fmt.Sprintf("p%d/%s", passes, name), sp.id())
			t0 := time.Now()
			res, err := s.h.RunSampledAB(cfg, s.progs[name], sc)
			lat := time.Since(t0)
			call.end()
			passWall += lat
			if err != nil {
				r.done(passes, lat, 0, fmt.Errorf("%s: %w", name, err))
				continue
			}
			n := float64(res.Base.TotalInsts + res.LF.TotalInsts)
			insts += n
			detailedInsts += float64(res.Base.DetailedInsts + res.LF.DetailedInsts)
			r.done(passes, lat, n, checkSampled(r, name, res))
			if passes == 0 {
				speedups = append(speedups, res.EstSpeedup)
				errs = append(errs, errPct(res.LF.EstCycles, r.gold["full/"+name].LF))
			}
		}
		sp.end()
		r.setWall(passes, passWall)
		r.markPeak(passes)
		wall += passWall
	}
	after := sampleAllocs()
	r.info["passes"] = passes
	r.layer["sim.geomean_speedup"] = sim.Geomean(speedups)
	r.layer["sim.sampled_err_pct"] = mean(errs)
	if r.tr == nil {
		return nil
	}
	st := s.h.Stats()
	if st.JobNanos > 0 {
		r.layer["cpu.minsts_per_s"] = detailedInsts / (float64(st.JobNanos) / 1e9) / 1e6
	}
	r.layer["cpu.allocs_per_inst"], r.layer["cpu.bytes_per_inst"], r.layer["cpu.gc_cpu_frac"] = allocRates(after.since(before), insts)
	r.layer["sim.utilization"] = float64(st.JobNanos) / (float64(clients) * float64(wall))
	if st.Jobs > 0 {
		r.layer["sim.window_ms"] = float64(st.JobNanos) / float64(st.Jobs) / 1e6
	}
	probeTier1(r, s, cfg, sc)
	compileLintTimes(r)
	return nil
}

// checkSampled compares both estimates and the tier-1 instruction count with
// golden.json exactly: the estimates are deterministic, so any drift is a
// change in simulated results.
func checkSampled(r *run, name string, res *sim.SampledResult) error {
	g, err := r.gold.get("tier0/" + name)
	if err != nil {
		return err
	}
	if res.Base.EstCycles != g.Base || res.LF.EstCycles != g.LF || res.LF.TotalInsts != g.Insts {
		return fmt.Errorf("tier0/%s: estimates %v/%v cycles over %d insts; golden %v/%v over %d",
			name, res.Base.EstCycles, res.LF.EstCycles, res.LF.TotalInsts, g.Base, g.LF, g.Insts)
	}
	return nil
}

// probeTier1 times, outside the measured passes, the calls the harness makes
// under RunSampledAB: one fastsim.Run per program with the harness's warming
// and checkpoint options, cpu.NewMachineFromCheckpoint on every checkpoint it
// emits, and one cold cpu.NewMachine per program.
func probeTier1(r *run, s *sampledSetup, cfg cpu.Config, sc sim.SampleConfig) {
	sp := r.tr.start(0, benchLayer, "probe", "tier1", 0)
	defer sp.end()
	var tier1, clone, boot time.Duration
	var insts uint64
	var clones int
	for _, name := range s.names {
		prog := s.progs[name]
		opts := fastsim.Options{
			CheckpointEvery: sc.Interval,
			CheckpointLead:  sc.Warmup % sc.Interval,
			BPred:           &cfg.BPred,
			Hier:            &cfg.Hier,
			LF: &fastsim.LFWarm{Threadlets: cfg.Threadlets, Monitor: cfg.Monitor,
				Pack: cfg.Pack, SSB: cfg.SSB},
		}
		call := r.tr.start(0, "fastsim", "fastsim.Run", name, sp.id())
		t0 := time.Now()
		res, err := fastsim.Run(prog, opts)
		tier1 += time.Since(t0)
		call.end()
		r.check(err)
		if err != nil {
			continue
		}
		insts += res.DynInsts
		for _, ck := range res.Checkpoints {
			call := r.tr.start(0, "cpu", "cpu.NewMachineFromCheckpoint", name, sp.id())
			t0 := time.Now()
			_, err := cpu.NewMachineFromCheckpoint(cfg, prog, ck)
			clone += time.Since(t0)
			call.end()
			clones++
			r.check(err)
		}
		call = r.tr.start(0, "cpu", "cpu.NewMachine", name, sp.id())
		t0 = time.Now()
		_, err = cpu.NewMachine(cfg, prog)
		boot += time.Since(t0)
		call.end()
		r.check(err)
	}
	if tier1 > 0 {
		r.layer["fastsim.tier1_minsts_per_s"] = float64(insts) / tier1.Seconds() / 1e6
	}
	if clones > 0 {
		r.layer["cpu.ckpt_clone_us"] = float64(clone) / float64(clones) / 1e3
	}
	r.layer["cpu.new_machine_us"] = float64(boot) / float64(len(s.names)) / 1e3
}
