package main

import (
	"fmt"
	"math/rand"
	"slices"

	"loopfrog/internal/compiler"
	"loopfrog/internal/serve"
	"loopfrog/internal/workloads"
)

// The benchmark's inputs come only from these fixed pools and the seed. The
// pools are finite so that golden.json can hold the exact result of every
// input a seed can draw.

// quickSuite is the six-program CPU2017 subset the repository's testing.B
// sweeps use.
var quickSuite = []string{"mcf", "omnetpp", "x264", "leela", "imagick", "gcc"}

// randLoopPool is the number of workloads.RandomHintedLoop programs (seeds
// 1..randLoopPool) a detailed run draws from; randLoopsPerRun are drawn.
const (
	randLoopPool    = 64
	randLoopsPerRun = 4
)

// abPool are the benchmarks whose A/B jobs the serve and fabric clients
// repeat, so every submission after the first is a run-cache hit. A hit costs
// the same whatever the program; these are mid-sized ones, so the unmeasured
// warm-up that runs each once stays short.
var abPool = []string{"dealII", "bzip2", "h264ref", "hmmer", "calculix", "sphinx3"}

// sourcePool are the LoopLang programs behind the distinct source jobs, the
// misses: the suites' shortest programs, whose compile and detailed LoopFrog
// run cost within a factor of two of each other on one core, so a 20-second
// run completes hundreds of jobs and the latency tail does not hinge on
// which programs a seed draws. None is in abPool, so no source job can share
// a run-cache key with an A/B repeat.
var sourcePool = []string{"deepsjeng", "blender", "sjeng", "gobmk"}

// sampledPool are the benchmarks behind the default-shape sampled jobs: ones
// whose tier-1 pass is short and whose estimate holds the 2% budget.
var sampledPool = []string{"deepsjeng", "blender", "sjeng", "gobmk", "calculix"}

// Variant axes of the source jobs, the autotuner's search space.
var (
	packFactors = []int{1, 4, 32}
	granules    = []int{4, 8}
)

// The serve job list is built from blocks of blockLen entries, each holding
// sourcePerBlock distinct source jobs, sampledPerBlock default-shape sampled
// jobs and A/B repeats for the rest, in seed order. A third of the entries
// miss the run-cache and two thirds hit it: the share of the repository's
// recorded sweep load, `lfbench -fabric`, which sends each distinct job three
// times (BENCH_fabric.json, affinity phase, single-node hit rate 0.667).
// Fixed counts per block keep that share, and so the throughput, the same
// for every seed; the seed decides the order and the source variants. The
// list is longer than a run at today's speed gets through.
const (
	serveJobs       = 3000
	blockLen        = 6
	sourcePerBlock  = 2
	sampledPerBlock = 1
	// A fabric source key comes back in the first A/B slot this many
	// entries later: far enough that its first run has finished, so the
	// repeat is a cache hit rather than a join on the run in flight.
	fabricRepeatAt = 24
	// Once a program's variants are used up they are dealt again with
	// max_cycles set to roundCycles plus the round number: a new run-cache
	// key, as lfservd -load makes its misses, with the same result, since
	// every run ends far below that budget.
	roundCycles = 100_000_000
)

// Job kinds of the serve job list.
const (
	kindAB      = "ab"
	kindSource  = "source"
	kindSampled = "sampled"
)

// serveItem is one entry of the serve job list: the golden key its result is
// checked against and the request body.
type serveItem struct {
	Key  string        `json:"key"`
	Kind string        `json:"kind"`
	Spec serve.JobSpec `json:"spec"`
}

// sourceVariant is one point of the source pool.
type sourceVariant struct {
	Bench    string
	Pack     int
	Granule  int
	Deselect []int
}

func (v sourceVariant) key() string {
	return fmt.Sprintf("source/%s/pack=%d/gran=%d/off=%v", v.Bench, v.Pack, v.Granule, v.Deselect)
}

// sourceVariants enumerates the source pool in a fixed order: every program
// under every packing factor and granule, with hints on every annotated loop
// and with each annotated loop compiled plain.
func sourceVariants() ([]sourceVariant, error) {
	var out []sourceVariant
	for _, name := range sourcePool {
		b := findBench(name)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		sites, err := compiler.Loops(b.Source())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		masks := [][]int{nil}
		for _, s := range sites {
			if s.Selected {
				masks = append(masks, []int{s.Line})
			}
		}
		for _, mask := range masks {
			for _, p := range packFactors {
				for _, g := range granules {
					out = append(out, sourceVariant{Bench: name, Pack: p, Granule: g, Deselect: mask})
				}
			}
		}
	}
	return out, nil
}

// findBench looks a benchmark up in the CPU2017 and CPU2006 suites.
func findBench(name string) *workloads.Benchmark {
	if b := workloads.ByName(workloads.CPU2017(), name); b != nil {
		return b
	}
	return workloads.ByName(workloads.CPU2006(), name)
}

// detailedLoops returns the RandomHintedLoop seeds a detailed run simulates.
func detailedLoops(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, 0, randLoopsPerRun)
	for _, i := range rng.Perm(randLoopPool)[:randLoopsPerRun] {
		out = append(out, int64(i+1))
	}
	slices.Sort(out)
	return out
}

// sampledOrder returns the order a sampled pass visits the CPU2017 suite in.
func sampledOrder(seed int64, names []string) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, len(names))
	for i, j := range rng.Perm(len(names)) {
		out[i] = names[j]
	}
	return out
}

// cycle deals the entries of pool in rounds, each round a fresh seed
// permutation, so every entry comes up once per round.
type cycle struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (c *cycle) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return i
}

// serveList generates the serve job list for seed. Source jobs cycle through
// sourcePool program by program, each time with a variant of that program
// not sent before; sampled and A/B jobs cycle through their pools. With
// repeatAll (the fabric workload) every source key is submitted a second
// time, in an A/B slot at least fabricRepeatAt entries later, so every key
// the fabric routes repeats and the share of misses stays that of serve.
func serveList(seed int64, repeatAll bool) ([]serveItem, error) {
	variants, err := sourceVariants()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	byBench := make([][]sourceVariant, len(sourcePool))
	rounds := make([]int64, len(sourcePool))
	deal := func(p int) {
		for _, v := range variants {
			if v.Bench == sourcePool[p] {
				byBench[p] = append(byBench[p], v)
			}
		}
		rng.Shuffle(len(byBench[p]), func(a, b int) { byBench[p][a], byBench[p][b] = byBench[p][b], byBench[p][a] })
	}
	for p := range sourcePool {
		deal(p)
	}
	programs := &cycle{rng: rng, n: len(sourcePool)}
	sampled := &cycle{rng: rng, n: len(sampledPool)}
	abs := &cycle{rng: rng, n: len(abPool)}

	out := make([]serveItem, 0, serveJobs)
	var repeats []int // list positions of source items still to be repeated
	var block []string
	for len(out) < serveJobs {
		if len(block) == 0 {
			for i := 0; i < blockLen; i++ {
				kind := kindAB
				if i < sourcePerBlock {
					kind = kindSource
				} else if i < sourcePerBlock+sampledPerBlock {
					kind = kindSampled
				}
				block = append(block, kind)
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[0]
		block = block[1:]
		switch {
		case kind == kindSource:
			p := programs.next()
			if len(byBench[p]) == 0 {
				rounds[p]++
				deal(p)
			}
			v := byBench[p][0]
			byBench[p] = byBench[p][1:]
			spec := serve.JobSpec{
				Source:       findBench(v.Bench).Source(),
				Deselect:     v.Deselect,
				PackFactor:   v.Pack,
				GranuleBytes: v.Granule,
			}
			if rounds[p] > 0 {
				spec.MaxCycles = roundCycles + rounds[p]
			}
			out = append(out, serveItem{Key: v.key(), Kind: kindSource, Spec: spec})
			if repeatAll {
				repeats = append(repeats, len(out)-1)
			}
		case kind == kindSampled:
			name := sampledPool[sampled.next()]
			out = append(out, serveItem{Key: "sampled/" + name, Kind: kindSampled,
				Spec: serve.JobSpec{Bench: name, AB: true, Sampled: true}})
		case len(repeats) > 0 && repeats[0]+fabricRepeatAt <= len(out):
			out = append(out, out[repeats[0]])
			repeats = repeats[1:]
		default:
			name := abPool[abs.next()]
			out = append(out, serveItem{Key: "full/" + name, Kind: kindAB, Spec: serve.JobSpec{Bench: name, AB: true}})
		}
	}
	return out, nil
}
