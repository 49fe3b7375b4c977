package workloads

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"loopfrog/internal/asm"
	"loopfrog/internal/compiler"
)

// Class tags a benchmark's dominant bottleneck, mirroring the paper's gain
// taxonomy (Table 2) and no-speedup categories (§6.4.3).
type Class string

// Bottleneck classes.
const (
	ClassMemory     Class = "memory-parallelism"
	ClassControl    Class = "control-dependencies"
	ClassDepChain   Class = "dependency-chains"
	ClassBranchPref Class = "branch-condition-prefetch"
	ClassDataPref   Class = "data-value-prefetch"
	ClassNoneSmall  Class = "none-small-loops"
	ClassNoneLarge  Class = "none-large-loops"
	ClassNoneTrip   Class = "none-low-trip"
	ClassNoneIPC    Class = "none-high-ipc"
	ClassSerial     Class = "none-serial-dep"
)

// IsTrueParallelism reports whether the class is a "true parallelism"
// category per Table 2.
func (c Class) IsTrueParallelism() bool {
	return c == ClassMemory || c == ClassControl || c == ClassDepChain
}

// Benchmark is one suite entry.
type Benchmark struct {
	// Name matches the SPEC program this kernel stands in for.
	Name string
	// Suite is "cpu2017" or "cpu2006".
	Suite string
	// Class is the dominant bottleneck.
	Class Class
	// InOpenMPRegion marks loops that sit inside an (outer) OpenMP-parallel
	// region in the original program; §6.7 excludes them.
	InOpenMPRegion bool
	// SeqTimeRatio is the benchmark's sequential-region time divided by its
	// parallel-region (baseline) time: the region-coverage structure of the
	// original program. Whole-program speedups combine the simulated loop
	// region with this unaccelerated remainder, exactly as the paper's
	// SimPoint weighting combines sampled phases (§6.1). The values are
	// fixed constants of the workload definition, not fitted at run time.
	SeqTimeRatio float64
	// NormalisedRegs marks programs that zero their dead temporaries before
	// halting, so a differential check may compare the full register file.
	// Compiled kernels leave body temporaries behind, which the hint
	// contract does not preserve (the successor inherits registers at the
	// detach, not the parent's body writes): for those, only memory and the
	// ABI result register are comparable against the sequential reference.
	NormalisedRegs bool

	source  string // LoopLang source ("" for prebuilt asm programs)
	asmProg *asm.Program

	once sync.Once
	prog *asm.Program
	err  error
}

// Program compiles (or returns) the benchmark's program image.
func (b *Benchmark) Program() (*asm.Program, error) {
	b.once.Do(func() {
		if b.asmProg != nil {
			b.prog = b.asmProg
			return
		}
		prog, _, err := compiler.Compile(b.Name, b.source)
		if err != nil {
			b.err = fmt.Errorf("workloads: %s: %w", b.Name, err)
			return
		}
		b.prog = prog
	})
	return b.prog, b.err
}

// Source returns the benchmark's LoopLang source, or "" for prebuilt asm
// programs. Tooling that searches per-loop hint variants (lftune) recompiles
// from this.
func (b *Benchmark) Source() string { return b.source }

// MustProgram is Program that panics on error.
func (b *Benchmark) MustProgram() *asm.Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// CPU2017 returns the SPEC CPU 2017 stand-in suite. Kernel parameters are
// chosen so dynamic instruction counts stay around 10^5 while preserving
// each program's bottleneck class.
func CPU2017() []*Benchmark {
	return []*Benchmark{
		{Name: "perlbench", Suite: "cpu2017", Class: ClassControl, source: branchy(6000), SeqTimeRatio: 8.1},
		{Name: "gcc", Suite: "cpu2017", Class: ClassBranchPref, source: branchy(9000), SeqTimeRatio: 1.1},
		{Name: "mcf", Suite: "cpu2017", Class: ClassMemory, source: gather(400, 130), SeqTimeRatio: 5.6},
		{Name: "omnetpp", Suite: "cpu2017", Class: ClassBranchPref, source: branchyGather(500, 150), SeqTimeRatio: 0.05},
		{Name: "xalancbmk", Suite: "cpu2017", Class: ClassMemory, source: gather(500, 90), SeqTimeRatio: 3.2},
		{Name: "x264", Suite: "cpu2017", Class: ClassDepChain, source: depchain(220, 110), SeqTimeRatio: 6.8},
		{Name: "deepsjeng", Suite: "cpu2017", Class: ClassNoneTrip, source: lowtrip(6000, 3), SeqTimeRatio: 2.2},
		{Name: "leela", Suite: "cpu2017", Class: ClassNoneSmall, source: tinyChase(12000), SeqTimeRatio: 1.0},
		{Name: "exchange2", Suite: "cpu2017", Class: ClassDataPref, source: gather(450, 60), SeqTimeRatio: 4.8},
		{Name: "xz", Suite: "cpu2017", Class: ClassNoneLarge, source: huge(96, 420), SeqTimeRatio: 2.0},
		{Name: "bwaves", Suite: "cpu2017", Class: ClassMemory, source: gather(500, 110), SeqTimeRatio: 7.2},
		{Name: "cactuBSSN", Suite: "cpu2017", Class: ClassDepChain, source: depchain(300, 120), SeqTimeRatio: 8.4},
		{Name: "namd", Suite: "cpu2017", Class: ClassNoneIPC, source: highipc(8000), SeqTimeRatio: 3.9},
		{Name: "parest", Suite: "cpu2017", Class: ClassMemory, source: gather(300, 120), InOpenMPRegion: true, SeqTimeRatio: 4.1},
		{Name: "povray", Suite: "cpu2017", Class: ClassBranchPref, source: branchy(7000), SeqTimeRatio: 2.4},
		{Name: "lbm", Suite: "cpu2017", Class: ClassNoneLarge, source: huge(80, 500), InOpenMPRegion: true, SeqTimeRatio: 2.0},
		{Name: "wrf", Suite: "cpu2017", Class: ClassMemory, source: gather(420, 95), SeqTimeRatio: 6.2},
		{Name: "blender", Suite: "cpu2017", Class: ClassNoneTrip, source: lowtrip(4800, 4), SeqTimeRatio: 5.2},
		{Name: "imagick", Suite: "cpu2017", Class: ClassDepChain, source: fpChain(150, 300), SeqTimeRatio: 0.0, InOpenMPRegion: true},
		{Name: "nab", Suite: "cpu2017", Class: ClassMemory, source: gather(350, 100), InOpenMPRegion: true, SeqTimeRatio: 2.1},
	}
}

// CPU2006 returns the SPEC CPU 2006 stand-in suite: the same kernel
// families with different shapes and seeds.
func CPU2006() []*Benchmark {
	return []*Benchmark{
		{Name: "perlbench06", Suite: "cpu2006", Class: ClassControl, source: branchy(5500), SeqTimeRatio: 3.7},
		{Name: "bzip2", Suite: "cpu2006", Class: ClassDepChain, source: depchain(250, 100), SeqTimeRatio: 2.7},
		{Name: "gcc06", Suite: "cpu2006", Class: ClassBranchPref, source: branchy(8000), SeqTimeRatio: 0.95},
		{Name: "mcf06", Suite: "cpu2006", Class: ClassMemory, source: gather(420, 125), SeqTimeRatio: 1.0},
		{Name: "gobmk", Suite: "cpu2006", Class: ClassNoneTrip, source: lowtrip(5200, 3), SeqTimeRatio: 2.0},
		{Name: "hmmer", Suite: "cpu2006", Class: ClassDepChain, source: depchain(260, 95), SeqTimeRatio: 2.4},
		{Name: "sjeng", Suite: "cpu2006", Class: ClassNoneTrip, source: lowtrip(4500, 4), SeqTimeRatio: 2.0},
		{Name: "libquantum", Suite: "cpu2006", Class: ClassMemory, source: gather(480, 105), SeqTimeRatio: 0.54},
		{Name: "h264ref", Suite: "cpu2006", Class: ClassDepChain, source: depchain(280, 90), SeqTimeRatio: 3.0},
		{Name: "omnetpp06", Suite: "cpu2006", Class: ClassBranchPref, source: branchyGather(450, 120), SeqTimeRatio: 0.15},
		{Name: "astar", Suite: "cpu2006", Class: ClassMemory, source: gather(380, 100), SeqTimeRatio: 3.4},
		{Name: "xalancbmk06", Suite: "cpu2006", Class: ClassMemory, source: gather(360, 85), SeqTimeRatio: 1.4},
		{Name: "milc", Suite: "cpu2006", Class: ClassMemory, source: gather(440, 100), SeqTimeRatio: 1.9},
		{Name: "zeusmp", Suite: "cpu2006", Class: ClassMemory, source: gather(400, 90), SeqTimeRatio: 3.0},
		{Name: "gromacs", Suite: "cpu2006", Class: ClassDepChain, source: fpChain(320, 60), SeqTimeRatio: 6.0},
		{Name: "cactusADM", Suite: "cpu2006", Class: ClassDepChain, source: depchain(270, 115), SeqTimeRatio: 2.2},
		{Name: "leslie3d", Suite: "cpu2006", Class: ClassMemory, source: gather(380, 95), SeqTimeRatio: 2.7},
		{Name: "namd06", Suite: "cpu2006", Class: ClassNoneIPC, source: highipc(7000), SeqTimeRatio: 3.0},
		{Name: "dealII", Suite: "cpu2006", Class: ClassDepChain, source: fpChain(300, 70), SeqTimeRatio: 1.5},
		{Name: "soplex", Suite: "cpu2006", Class: ClassMemory, source: gather(400, 110), SeqTimeRatio: 4.4},
		{Name: "povray06", Suite: "cpu2006", Class: ClassBranchPref, source: branchy(6200), SeqTimeRatio: 3.0},
		{Name: "calculix", Suite: "cpu2006", Class: ClassSerial, source: serialAccum(6000), SeqTimeRatio: 1.0},
		{Name: "gemsFDTD", Suite: "cpu2006", Class: ClassMemory, source: gather(420, 105), SeqTimeRatio: 2.3},
		{Name: "tonto", Suite: "cpu2006", Class: ClassControl, source: histogram(5200, 512), SeqTimeRatio: 2.0},
		{Name: "lbm06", Suite: "cpu2006", Class: ClassNoneLarge, source: huge(72, 460), SeqTimeRatio: 2.0},
		{Name: "wrf06", Suite: "cpu2006", Class: ClassMemory, source: gather(410, 100), SeqTimeRatio: 5.1},
		{Name: "sphinx3", Suite: "cpu2006", Class: ClassControl, source: fpCompute(4600, 5), SeqTimeRatio: 2.0},
	}
}

// Profitable2017Names are the 13 CPU 2017 programs the paper reports as
// gaining more than 1% (§6.2); figure 7 and figure 8 focus on them.
func Profitable2017Names() map[string]bool {
	return map[string]bool{
		"perlbench": true, "gcc": true, "mcf": true, "omnetpp": true,
		"xalancbmk": true, "x264": true, "exchange2": true, "bwaves": true,
		"cactuBSSN": true, "parest": true, "povray": true, "wrf": true,
		"imagick": true, "nab": true,
	}
}

// ByName finds a benchmark in a suite.
func ByName(suite []*Benchmark, name string) *Benchmark {
	for _, b := range suite {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Find resolves a benchmark name across every suite the tools run by name:
// CPU2017, CPU2006 and Security. Names are unique across the three. An
// unknown name returns nil.
//
// The suites are built once per process and Find returns the same shared
// Benchmark for a name every time, so its program is compiled at most once
// however often it is looked up (a serve job names its program this way).
// No caller modifies a Benchmark or its program.
func Find(name string) *Benchmark { return named()[name] }

// named indexes the suites Find searches, built on first use.
var named = sync.OnceValue(func() map[string]*Benchmark {
	idx := make(map[string]*Benchmark)
	for _, suite := range [][]*Benchmark{CPU2017(), CPU2006(), Security()} {
		for _, b := range suite {
			idx[b.Name] = b
		}
	}
	return idx
})

// Load resolves a tool's program input: the named built-in benchmark when
// bench is set (Find), otherwise the file at path (LoadFile).
func Load(bench, path string) (*asm.Program, compiler.Diagnostics, error) {
	if bench == "" {
		return LoadFile(path)
	}
	if b := Find(bench); b != nil {
		prog, err := b.Program()
		return prog, nil, err
	}
	return nil, nil, fmt.Errorf("unknown benchmark %q", bench)
}

// LoadFile reads a program from disk: a .s file is assembled, anything else
// is compiled as LoopLang. The image is named after the path so diagnostics
// point at it. The compiler's notes (de-selected loops) are returned for the
// caller to print or drop.
func LoadFile(path string) (*asm.Program, compiler.Diagnostics, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(path, ".s") {
		prog, err := asm.Assemble(path, string(src))
		return prog, nil, err
	}
	return compiler.Compile(path, string(src))
}
