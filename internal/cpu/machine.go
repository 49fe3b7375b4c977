package cpu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"loopfrog/internal/asm"
	"loopfrog/internal/bpred"
	"loopfrog/internal/core"
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
)

// ErrNoProgress is returned when the machine stops making architectural
// progress — always a model bug, never a workload property.
var ErrNoProgress = errors.New("cpu: no architectural progress")

// ErrCycleLimit is returned when MaxCycles elapses before HALT commits.
var ErrCycleLimit = errors.New("cpu: cycle limit exceeded")

// Machine is one simulated core (baseline or LoopFrog, per Config).
type Machine struct {
	cfg  Config
	prog *asm.Program
	// code is the PC-indexed predecoded instruction image (asm.Decoded),
	// shared read-only with every other machine running the same program.
	code []asm.DecInst

	mem  *mem.Memory
	hier *mem.Hierarchy
	bp   *bpred.Predictor
	ssb  *core.SSB
	cd   *core.ConflictDetector
	pack *core.PackPredictor
	mon  *core.RegionMonitor

	threads []*threadlet
	gens    []uint64 // context generation, bumped at spawn
	// order lists live threadlets oldest-first; order[0] is architectural.
	order []int
	// contextFreeAt gates context reuse on the background slice flush.
	contextFreeAt []int64

	now int64

	// Shared structure occupancy.
	robUsed, iqUsed, lqUsed, sqUsed int
	intRegsUsed, fpRegsUsed         int

	readyQ    [isa.NumClasses][]*dynInst
	executing []*dynInst
	replayQ   []*dynInst

	stats          Stats
	halted         bool
	lastArchCommit int64
	eventHook      func(Event)

	// Fault injection (fault_hooks.go); nil on normal runs.
	inj FaultInjector

	// Forward-progress watchdog state (watchdog.go). specSince is the cycle
	// the current architectural epoch acquired speculative successors; the
	// restart fields feed the squash-livelock detector; wdErr latches a trip
	// raised inside a pipeline stage until Run can return it.
	wd            WatchdogConfig
	specSince     int64
	lastRestartPC int
	restartStreak int
	wdErr         *ProgressError
	// memFault latches an architecturally-reached invalid memory access
	// (MemFault) for Run to return — a bad program, not a model bug.
	memFault error

	// Commit-slot attribution state (stall.go). recoverUntil marks the
	// front-end refill window after a threadlet squash; the sampler fields
	// drive the optional per-interval trace counter track.
	recoverUntil int64
	slotSampler  func(cycle int64, delta [NumSlotClasses]uint64)
	slotEvery    int64
	slotTick     int64
	lastSlots    [NumSlotClasses]uint64

	archSpecInsts []uint64 // per-context spec-committed, indexed by tid

	// Per-region attribution state (region.go). regionIdx maps a region ID
	// to its ledger's index in stats.Regions; the last* pair caches the
	// repeated lookup so steady-state charges cost one compare.
	regionIdx     map[int64]int
	lastRegionID  int64
	lastRegionIdx int

	// Speculative-leak tracking state (spectre.go). spectreLive mirrors
	// "either knob set" for the hot paths; mitigate mirrors
	// cfg.DelaySpeculativeLoadDeps; leakPCs counts confirmed leaks per PC;
	// delayedWake holds load results withheld by the mitigation; ssbTaint is
	// the per-slice granule taint set, indexed by tid.
	spectreLive bool
	mitigate    bool
	leakPCs     map[int]uint64
	delayedWake []*dynInst
	ssbTaint    []map[uint64]bool

	// Published statistics snapshot (snapshot.go): pub is the coherent copy
	// external readers see, snapWanted arms the throttled republish.
	pubMu      sync.Mutex
	pub        StatsSnapshot
	snapWanted atomic.Bool

	// Per-cycle scratch buffers, reused to keep the pipeline loops
	// allocation-free. Each belongs to exactly one pipeline stage.
	commitSnap, drainSnap, dispatchSnap []int
	granScratch                         []uint64
	finished                            []*dynInst // writeback
	ageRank                             []int      // sortByAge, indexed by tid

	// Instruction recycling (newInst, freeInst). instFree holds freed
	// instructions, reused last-in first-out; instChunk is the unused tail of
	// the current chunk. instMade counts instructions taken from chunks and
	// instDropped those freed without reuse, for the recycling tests.
	instFree    []*dynInst
	instChunk   []dynInst
	instMade    int
	instDropped int
}

// NewMachine builds a machine for the program.
func NewMachine(cfg Config, prog *asm.Program) (*Machine, error) {
	return newMachine(cfg, prog, nil)
}

// newMachine builds a machine starting either from the program entry (ck ==
// nil) or from a tier-1 checkpoint's architectural and warm state. The
// checkpoint is treated as immutable: every piece of its state is cloned, so
// many machines (parallel-in-time windows, panic retries) may seed from one
// checkpoint concurrently.
func newMachine(cfg Config, prog *asm.Program, ck *Checkpoint) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.Threadlets < 1 {
		return nil, fmt.Errorf("cpu: need at least one threadlet context, got %d", cfg.Threadlets)
	}
	if ck != nil {
		if ck.PC < 0 || ck.PC >= len(prog.Insts) {
			return nil, fmt.Errorf("cpu: checkpoint pc %d out of range [0,%d)", ck.PC, len(prog.Insts))
		}
		if ck.Mem == nil {
			return nil, fmt.Errorf("cpu: checkpoint has no memory image")
		}
	}
	cfg.SSB.Slices = cfg.Threadlets
	cfg.Watchdog = cfg.Watchdog.Normalized()
	m := &Machine{
		cfg:           cfg,
		wd:            cfg.Watchdog,
		lastRestartPC: -1,
		prog:          prog,
		contextFreeAt: make([]int64, cfg.Threadlets),
		gens:          make([]uint64, cfg.Threadlets),
		archSpecInsts: make([]uint64, cfg.Threadlets),
		ageRank:       make([]int, cfg.Threadlets),
		code:          prog.Decoded(),
	}
	// State a checkpoint supplies is cloned from it; only the rest is built
	// cold.
	startPC := prog.Entry
	if ck != nil {
		startPC = ck.PC
		m.mem = ck.Mem.Clone()
		if ck.BP != nil {
			m.bp = ck.BP.CloneFor(cfg.Threadlets)
		}
		if ck.Hier != nil {
			m.hier = ck.Hier.CloneAt(0)
		}
		if ck.Mon != nil {
			m.mon = ck.Mon.Clone()
		}
		if ck.Pack != nil {
			m.pack = ck.Pack.Clone()
		}
	} else {
		m.mem = mem.NewMemory()
		m.mem.LoadProgram(prog)
	}
	if m.hier == nil {
		m.hier = mem.NewHierarchy(cfg.Hier)
	}
	if m.bp == nil {
		m.bp = bpred.New(cfg.BPred, cfg.Threadlets)
	}
	if m.mon == nil {
		m.mon = core.NewRegionMonitor(cfg.Monitor)
	}
	if m.pack == nil {
		m.pack = core.NewPackPredictor(cfg.Pack)
	}
	m.ssb = core.NewSSB(cfg.SSB, m.mem)
	newSet := func() core.GranuleSet { return core.NewExactSet() }
	if cfg.BloomBits > 0 {
		newSet = func() core.GranuleSet { return core.NewBloomSet(cfg.BloomBits, cfg.BloomHashes) }
	}
	m.cd = core.NewConflictDetector(cfg.Threadlets, cfg.ConflictCheckLatency, newSet)
	m.regionIdx = make(map[int64]int, 8)
	m.lastRegionID = regionNone
	if cfg.SpectreAnalysis || cfg.DelaySpeculativeLoadDeps {
		m.spectreLive = true
		m.mitigate = cfg.DelaySpeculativeLoadDeps
		m.ssbTaint = make([]map[uint64]bool, cfg.Threadlets)
	}

	m.threads = make([]*threadlet, cfg.Threadlets)
	for i := range m.threads {
		m.threads[i] = &threadlet{id: i, activeRegion: -1, homeRegion: -1}
	}
	t0 := m.threads[0]
	t0.live = true
	t0.fetchPC = startPC
	if ck != nil {
		t0.committedRegs = ck.Regs
		if ck.Region > 0 {
			// Re-attach the thread chain to the region it owned at the
			// checkpoint; inner-region detaches stay hint NOPs, exactly as in
			// the uninterrupted run. The chain is not detached (no successor
			// exists yet): the next owned detach spawns, one iteration late at
			// worst — the same recovery the full machine makes after a
			// no-context detach.
			t0.activeRegion = ck.Region
			t0.homeRegion = ck.Region
		}
	} else {
		t0.committedRegs[isa.X(2)] = asm.DefaultStackTop
	}
	for r := 0; r < isa.NumRegs; r++ {
		t0.renameMap[r] = mapEntry{val: t0.committedRegs[r]}
	}
	t0.epochStartPC = startPC
	m.order = []int{0}
	m.publishStats()
	return m, nil
}

// Run simulates to completion and returns the statistics.
func (m *Machine) Run() (*Stats, error) {
	return m.RunContext(context.Background())
}

// liveSpecInsts sums the speculatively committed instructions of live, not
// yet promoted threadlets — the smooth complement to ArchInsts's bulk jumps
// at epoch promotion (see Stats.WarmupEndLive).
func (m *Machine) liveSpecInsts() uint64 {
	var n uint64
	for _, tid := range m.order {
		n += m.threads[tid].specCommitted
	}
	return n
}

// ctxCheckMask throttles the context poll in RunContext: the deadline is
// checked every 8192 cycles, keeping cancellation latency far below a
// millisecond of wall time while staying invisible on the hot path.
const ctxCheckMask = 8192 - 1

// RunContext simulates to completion, returning early with a wrapped
// context error if ctx is cancelled or its deadline passes. The
// forward-progress watchdog (watchdog.go) turns livelocks into a fast typed
// ProgressError instead of a 200M-cycle ErrCycleLimit timeout.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) {
	maxCycles := m.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	// However the run ends, leave the published snapshot exact.
	defer m.publishStats()
	done := ctx.Done()
	warmupPending := m.cfg.WarmupInsts > 0
	for !m.halted {
		// Warmup and window budgets trip on the SMOOTH instruction count
		// (architectural + live speculative commits): ArchInsts alone jumps in
		// bulk at epoch promotion, so an arch-only latch can overshoot the
		// warmup target by a whole epoch chain and leave a near-empty measured
		// slice (a handful of instructions over a handful of cycles) whose IPC
		// is noise the sampling driver would weight by a full window.
		if warmupPending || m.cfg.MaxArchInsts > 0 {
			smooth := m.stats.ArchInsts + m.liveSpecInsts()
			if warmupPending && smooth >= m.cfg.WarmupInsts {
				warmupPending = false
				m.stats.WarmupEndCycle = m.now
				m.stats.WarmupEndInsts = m.stats.ArchInsts
				m.stats.WarmupEndLive = smooth - m.stats.ArchInsts
			}
			if m.cfg.MaxArchInsts > 0 && smooth >= m.cfg.MaxArchInsts {
				// Sampled-window budget reached: a clean stop, not a halt.
				m.stats.Cycles = m.now
				m.stats.EndLive = smooth - m.stats.ArchInsts
				return &m.stats, nil
			}
		}
		if m.now >= maxCycles {
			return &m.stats, fmt.Errorf("%w (%d cycles, %d arch insts)", ErrCycleLimit, m.now, m.stats.ArchInsts)
		}
		if m.memFault != nil {
			return &m.stats, m.memFault
		}
		if m.wdErr != nil {
			return &m.stats, m.wdErr
		}
		if m.now-m.lastArchCommit > m.wd.NoCommitWindow {
			return &m.stats, m.progressError(ProgressNoCommit)
		}
		if len(m.order) > 1 && m.now-m.specSince > m.wd.EpochWindow {
			return &m.stats, m.progressError(ProgressStuckEpoch)
		}
		if m.now&ctxCheckMask == 0 {
			if m.snapWanted.Load() {
				m.publishStats()
			}
			if done != nil {
				select {
				case <-done:
					return &m.stats, fmt.Errorf("cpu: run cancelled at cycle %d (%d arch insts): %w",
						m.now, m.stats.ArchInsts, ctx.Err())
				default:
				}
			}
		}
		m.cycle()
	}
	if m.memFault != nil {
		return &m.stats, m.memFault
	}
	m.stats.Cycles = m.now
	m.stats.Halted = true
	return &m.stats, nil
}

// cycle advances the machine by one clock.
func (m *Machine) cycle() {
	if m.inj != nil {
		m.injectCycle()
	}
	if m.mitigate {
		m.releaseDelayedWakes()
	}
	m.writeback()
	usedBefore := m.stats.CommitSlotsUsed
	archBefore := m.stats.ArchCommitCycleSum
	m.commit()
	m.attributeCommitSlots(m.stats.ArchCommitCycleSum-archBefore, m.stats.CommitSlotsUsed-usedBefore)
	m.drainStores()
	m.tryRetire()
	m.issue()
	m.dispatch()
	m.fetch()

	k := len(m.order)
	if k > len(m.stats.LiveCycles) {
		k = len(m.stats.LiveCycles)
	}
	if k > 0 {
		m.stats.LiveCycles[k-1]++
	}
	if m.slotSampler != nil {
		m.tickSlotSampler()
	}
	m.now++
	m.stats.Cycles = m.now
}

// archTid returns the architectural threadlet's ID.
func (m *Machine) archTid() int { return m.order[0] }

// isSpec reports whether tid is currently speculative.
func (m *Machine) isSpec(tid int) bool { return m.order[0] != tid }

// orderIdx returns tid's position in the epoch order, or -1.
func (m *Machine) orderIdx(tid int) int {
	for i, id := range m.order {
		if id == tid {
			return i
		}
	}
	return -1
}

// chainUpTo returns the oldest-first chain of live threadlets up to and
// including tid, as the SSB read logic requires (§4.1.3). The result aliases
// m.order: callers must consume it before anything mutates the epoch order
// (every use is a single SSB/conflict-detector call).
func (m *Machine) chainUpTo(tid int) []int {
	idx := m.orderIdx(tid)
	if idx < 0 {
		return nil
	}
	return m.order[:idx+1]
}

// youngerThan returns the live threadlets strictly younger than tid,
// oldest-first (Algorithm 1's successor iteration). Like chainUpTo, the
// result aliases m.order and must be consumed immediately.
func (m *Machine) youngerThan(tid int) []int {
	idx := m.orderIdx(tid)
	if idx < 0 || idx+1 >= len(m.order) {
		return nil
	}
	return m.order[idx+1:]
}

// FinalRegs returns the architectural register file after Run; valid only
// once the machine has halted.
func (m *Machine) FinalRegs() [isa.NumRegs]uint64 {
	return m.threads[m.archTid()].committedRegs
}

// Memory exposes the functional memory, for end-state verification and for
// external snoop injection in tests.
func (m *Machine) Memory() *mem.Memory { return m.mem }

// Hierarchy exposes the timing memory system (cache stats).
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// Predictor exposes the branch predictor (stats).
func (m *Machine) Predictor() *bpred.Predictor { return m.bp }

// SSB exposes the speculative state buffer (stats).
func (m *Machine) SSB() *core.SSB { return m.ssb }

// Detector exposes the conflict detector (stats).
func (m *Machine) Detector() *core.ConflictDetector { return m.cd }

// Packer exposes the iteration-packing predictor (stats).
func (m *Machine) Packer() *core.PackPredictor { return m.pack }

// Stats returns the current statistics (live during a run).
func (m *Machine) Stats() *Stats { return &m.stats }

// Config returns the machine's configuration (after NewMachine's
// normalisations).
func (m *Machine) Config() Config { return m.cfg }

// Monitor exposes the region profitability monitor (stats).
func (m *Machine) Monitor() *core.RegionMonitor { return m.mon }

// Now returns the current cycle.
func (m *Machine) Now() int64 { return m.now }

// ExternalSnoop injects a coherence request from another core for the line
// containing addr (§4.1.4): caches downgrade or invalidate, and any
// speculative threadlet whose read or write set covers the granule can no
// longer commit cleanly and is squashed.
func (m *Machine) ExternalSnoop(addr uint64, write bool) {
	m.hier.Snoop(addr, write)
	g := m.ssb.GranuleOf(addr)
	for i := 1; i < len(m.order); i++ { // speculative threadlets only
		tid := m.order[i]
		conflict := m.cd.WriteSetContains(tid, g)
		if write {
			conflict = conflict || m.cd.ReadSetContains(tid, g)
		}
		if conflict {
			m.squashFrom(tid, core.SquashExternal, true)
			return
		}
	}
}
