package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

// golden.json holds the expected result of every input the generator can
// draw, keyed by:
//
//	full/<bench>       exact baseline and LoopFrog cycles and arch insts
//	rand/<seed>        the same for one RandomHintedLoop program
//	tier0/<bench>      the rung-0 sampled A/B estimate (tune.Tiers()[0])
//	sampled/<bench>    the default-shape sampled A/B estimate, rounded the
//	                   way a serve job result reports it
//	source/<variant>   exact LoopFrog cycles of one source-job variant
//
// Regenerate it with `--regen-golden perfbench/golden.json` only when a
// change is meant to alter simulated results, and say so in that change.
//
//go:embed golden.json
var goldenJSON []byte

// cycles is one golden entry. Base is zero for LoopFrog-only entries.
type cycles struct {
	Base  float64 `json:"base,omitempty"`
	LF    float64 `json:"lf"`
	Insts uint64  `json:"insts,omitempty"`
}

type golden map[string]cycles

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// get returns the entry for key, or an error naming the missing key.
func (g golden) get(key string) (cycles, error) {
	c, ok := g[key]
	if !ok {
		return c, fmt.Errorf("golden.json has no entry %q", key)
	}
	return c, nil
}

// sampledBudget is the documented cycle-error budget of a default-shape
// sampled estimate against the exact run, in percent. The documented 5%
// outliers, perlbench and povray (BENCH_sampled.json), are left out of
// sampledPool, so every sampled job is held to 2%.
const sampledBudget = 2.0

func errPct(est, exact float64) float64 { return 100 * math.Abs(est-exact) / exact }

// serveConfig is the LoopFrog core a serve job runs on: the default
// configuration with four threadlet contexts, tuned by the job's variant.
func serveConfig(v tune.Variant) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.Threadlets = 4
	if v.PackFactor != 0 || v.GranuleBytes != 0 || len(v.Deselect) > 0 {
		cfg = v.Config(cfg)
	}
	return cfg
}

// fullNames are the programs whose exact full runs golden.json holds: the
// detailed, A/B and sampled pools, and all of CPU2017, against which the
// sampled workload reports its estimates' error.
func fullNames() []string {
	var out []string
	for _, b := range workloads.CPU2017() {
		out = append(out, b.Name)
	}
	for _, name := range append(append(append([]string{}, quickSuite...), abPool...), sampledPool...) {
		if !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

// goldenKeys are the keys golden.json holds: every one a workload reads.
func goldenKeys() ([]string, error) {
	var keys []string
	for _, name := range fullNames() {
		keys = append(keys, "full/"+name)
	}
	for s := 1; s <= randLoopPool; s++ {
		keys = append(keys, fmt.Sprintf("rand/%d", s))
	}
	for _, b := range workloads.CPU2017() {
		keys = append(keys, "tier0/"+b.Name)
	}
	for _, name := range sampledPool {
		keys = append(keys, "sampled/"+name)
	}
	variants, err := sourceVariants()
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		keys = append(keys, v.key())
	}
	return keys, nil
}

// regenGolden recomputes every golden entry with the library's own entry
// points (no serving layer) and writes the file.
func regenGolden(path string) error {
	h := &sim.Harness{Workers: 2}
	cfg := serveConfig(tune.Variant{})
	base := sim.BaselineOf(cfg)
	g := golden{}

	type pair struct {
		key  string
		prog *asm.Program
	}
	var pairs []pair
	for _, name := range fullNames() {
		p, err := findBench(name).Program()
		if err != nil {
			return err
		}
		pairs = append(pairs, pair{"full/" + name, p})
	}
	for s := int64(1); s <= randLoopPool; s++ {
		pairs = append(pairs, pair{fmt.Sprintf("rand/%d", s), randLoop(s)})
	}
	for _, p := range pairs {
		st, err := simulate(h, sim.Job{Cfg: base, Prog: p.prog}, sim.Job{Cfg: cfg, Prog: p.prog})
		if err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		g[p.key] = cycles{Base: float64(st[0].Cycles), LF: float64(st[1].Cycles), Insts: st[1].ArchInsts}
	}

	for _, b := range workloads.CPU2017() {
		r, err := h.RunSampledAB(cfg, b.MustProgram(), *tune.Tiers()[0].Sample)
		if err != nil {
			return err
		}
		g["tier0/"+b.Name] = cycles{Base: r.Base.EstCycles, LF: r.LF.EstCycles, Insts: r.LF.TotalInsts}
	}
	for _, name := range sampledPool {
		r, err := h.RunSampledAB(cfg, findBench(name).MustProgram(), sim.SampleConfig{})
		if err != nil {
			return err
		}
		c := cycles{Base: math.Floor(r.Base.EstCycles + 0.5), LF: math.Floor(r.LF.EstCycles + 0.5), Insts: r.LF.TotalInsts}
		full := g["full/"+name]
		if e := errPct(c.LF, full.LF); e > sampledBudget {
			return fmt.Errorf("sampled/%s: %.2f%% error is over the %.0f%% budget; drop it from sampledPool", name, e, sampledBudget)
		}
		g["sampled/"+name] = c
	}

	variants, err := sourceVariants()
	if err != nil {
		return err
	}
	for i := 0; i < len(variants); i += 2 {
		batch := variants[i:min(i+2, len(variants))]
		var jobs []sim.Job
		for _, v := range batch {
			tv := tune.Variant{Deselect: v.Deselect, PackFactor: v.Pack, GranuleBytes: v.Granule}
			prog, _, err := compiler.CompileOpts(v.Bench, findBench(v.Bench).Source(), tv.CompilerOpts())
			if err != nil {
				return err
			}
			jobs = append(jobs, sim.Job{Cfg: serveConfig(tv), Prog: prog})
		}
		st, err := simulate(h, jobs...)
		if err != nil {
			return fmt.Errorf("%s: %w", batch[0].key(), err)
		}
		for k, v := range batch {
			g[v.key()] = cycles{LF: float64(st[k].Cycles), Insts: st[k].ArchInsts}
		}
	}
	return writeGolden(path, g)
}

// simulate runs jobs on h and returns copies of their statistics. Copying
// matters: a harness without a run-cache hands out the machine's own Stats,
// which keeps the whole machine reachable.
func simulate(h *sim.Harness, jobs ...sim.Job) ([]cpu.Stats, error) {
	stats, err := h.RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]cpu.Stats, len(stats))
	for i, st := range stats {
		out[i] = *st
	}
	return out, nil
}

// writeGolden writes one entry per line, sorted by key, so a regenerated
// file diffs line by line.
func writeGolden(path string, g golden) error {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []byte("{\n")
	for i, k := range keys {
		// Marshalling a string and a struct of numbers cannot fail.
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(g[k])
		out = append(out, "  "...)
		out = append(out, kb...)
		out = append(out, ": "...)
		out = append(out, vb...)
		if i < len(keys)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "}\n"...)
	return os.WriteFile(path, out, 0o644)
}
