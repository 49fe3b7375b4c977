// Package cpu implements the cycle-level out-of-order superscalar core model
// and, composed with internal/core, the full LoopFrog machine (§4, Table 1).
//
// The model is a timing-directed simulator with dataflow-faithful functional
// execution: every dynamic instruction computes its result at execute time
// from operand values propagated through the renamed dataflow, and loads
// read memory through the SSB's multi-version logic at the cycle they
// execute. Timing therefore genuinely determines which values speculative
// threadlets observe, which is exactly the property thread-level speculation
// rests on — conflicts, forwarding and squashes arise from the schedule, not
// from an oracle.
//
// Deliberate simplifications (documented in DESIGN.md): wrong-path fetch
// after a branch misprediction is modelled as lost fetch slots plus a
// front-end refill penalty rather than executed wrong-path work, and rename
// recovery walks the ROB.
package cpu

import (
	"loopfrog/internal/bpred"
	"loopfrog/internal/core"
	"loopfrog/internal/mem"
)

// Config describes one core configuration (Table 1 defaults).
type Config struct {
	// Width is the pipeline width: fetch, rename/dispatch and commit
	// bandwidth per cycle (8 in Table 1; figure 1 sweeps it).
	Width int
	// FrontendDepth is the fetch-to-rename latency in cycles; it is also
	// the refill penalty after a branch misprediction redirect.
	FrontendDepth int

	// Shared back-end structure sizes (dynamically partitioned between
	// threadlets, Table 1).
	ROBSize    int
	IQSize     int
	LQSize     int
	SQSize     int
	IntRegs    int
	FPRegs     int
	FetchQueue int // per-threadlet (duplicated)

	// Functional unit counts per class (Table 1: 7 ALU+Branch, 2
	// ALU+Mul+Div, 4 SIMD+FP of which 2 Div/Sqrt, 4 Load, 2 Store).
	ALUs       int // simple-ALU-capable pipes (the 7 ALU+Branch + 2 Mul pipes)
	Branches   int // branch-capable pipes
	MulDivs    int
	FPs        int
	FPDivs     int
	LoadPipes  int
	StorePipes int

	// Threadlets is the number of threadlet contexts (1 disables LoopFrog
	// spawning entirely — the baseline core).
	Threadlets int
	// SpawnLatency is the front-end start-up cost of a new threadlet.
	SpawnLatency int64

	// LoopFrog components.
	SSB     core.SSBConfig
	Pack    core.PackConfig
	Monitor core.MonitorConfig
	// BloomBits/BloomHashes select the Bloom-filter conflict detector when
	// BloomBits > 0; otherwise exact sets model the idealised filter.
	BloomBits, BloomHashes int
	// ConflictCheckLatency is the background checking delay added before a
	// threadlet commits (Table 1: 4 cycles).
	ConflictCheckLatency int64

	// Predictor and memory system.
	BPred bpred.Config
	Hier  mem.HierConfig

	// MaxCycles bounds the simulation (0 = default).
	MaxCycles int64

	// MaxArchInsts, when non-zero, stops the run cleanly (no error, Stats
	// valid, Halted false) once that many instructions have become
	// architectural: a sampled-simulation window. Because threadlet promotion
	// commits epochs in bulk, the run may overshoot by up to an epoch; the
	// sampling driver measures with the actual ArchInsts, not the budget.
	MaxArchInsts uint64
	// WarmupInsts, when non-zero, marks the end of a window's detailed warmup:
	// the cycle and instruction count at which ArchInsts first reaches it are
	// recorded in Stats.WarmupEndCycle/WarmupEndInsts, and the sampling driver
	// measures IPC over the post-warmup remainder only. Both fields are part
	// of a run's behavioural identity and therefore of the run-cache key.
	WarmupInsts uint64

	// Watchdog tunes the forward-progress watchdog (watchdog.go). The zero
	// value means the default thresholds; the watchdog always runs.
	Watchdog WatchdogConfig

	// SpectreAnalysis enables the speculative-leak detector (spectre.go):
	// loads executed inside a transient window (wrong-path between a branch's
	// dispatch and its resolution, or anywhere in a pre-promotion speculative
	// threadlet) taint their results; taint propagates through the renamed
	// dataflow and through SSB granules; and a transient load whose address
	// derives from a tainted value is recorded as a leak candidate when it
	// reaches the cache hierarchy — confirmed as a leak if the access is
	// later squashed, because then the architectural program never performed
	// it yet the cache state changed. Detection is metadata-only: it never
	// alters timing or architectural results.
	SpectreAnalysis bool
	// DelaySpeculativeLoadDeps enables the ShadowBinding-style mitigation:
	// the result of a load executed inside a transient window is withheld
	// from its dependents until the load is safe (its threadlet is
	// architectural and no older control flow in it is unresolved). The
	// load's own cache access still happens — only the forwarding edge is
	// delayed — so a transiently-loaded secret can never choose the address
	// of a second access. Purely a timing change: architectural results are
	// unaffected. Implies the taint bookkeeping of SpectreAnalysis.
	DelaySpeculativeLoadDeps bool
}

// DefaultConfig returns the Table 1 machine: 4 GHz 8-wide core with four
// threadlet contexts and the headline SSB/conflict-detector parameters.
func DefaultConfig() Config {
	robSize := 1024
	return Config{
		Width:         8,
		FrontendDepth: 8,

		ROBSize:    robSize,
		IQSize:     384,
		LQSize:     256,
		SQSize:     256,
		IntRegs:    1024,
		FPRegs:     768,
		FetchQueue: 32,

		ALUs:       9, // 7 ALU+Branch plus 2 ALU+Mul+Div pipes
		Branches:   7,
		MulDivs:    2,
		FPs:        4,
		FPDivs:     2,
		LoadPipes:  4,
		StorePipes: 2,

		Threadlets:   4,
		SpawnLatency: 4,

		SSB:                  core.DefaultSSBConfig(),
		Pack:                 core.DefaultPackConfig(robSize),
		Monitor:              core.DefaultMonitorConfig(),
		ConflictCheckLatency: 4,

		BPred: bpred.DefaultConfig(),
		Hier:  mem.DefaultHierConfig(),

		MaxCycles: 200_000_000,
	}
}

// BaselineConfig returns the same core with LoopFrog disabled (hints are
// NOPs): a single threadlet context, no SSB spawning. This is the paper's
// baseline run.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.Threadlets = 1
	cfg.Pack.Enabled = false
	return cfg
}

// WithWidth returns a copy of cfg scaled to a different front-end width,
// used by the figure 1 sweep. Back-end FU counts scale proportionally.
func (c Config) WithWidth(w int) Config {
	cfg := c
	scale := func(n int) int {
		v := n * w / c.Width
		if v < 1 {
			v = 1
		}
		return v
	}
	cfg.Width = w
	cfg.ALUs = scale(c.ALUs)
	cfg.Branches = scale(c.Branches)
	cfg.MulDivs = scale(c.MulDivs)
	cfg.FPs = scale(c.FPs)
	cfg.FPDivs = scale(c.FPDivs)
	cfg.LoadPipes = scale(c.LoadPipes)
	cfg.StorePipes = scale(c.StorePipes)
	return cfg
}
