package cpu

import (
	"loopfrog/internal/bpred"
	"loopfrog/internal/isa"
)

type instState uint8

const (
	stDispatched instState = iota // in ROB, maybe waiting for operands
	stReady                       // operands ready, in a ready queue
	stExecuting                   // issued to a functional unit
	stDone                        // result available
	stCommitted                   // committed to its threadlet
)

// dynInst is one dynamic instruction in flight. Word-sized fields come
// first and the one-byte flags last, so the struct carries little padding:
// every dispatch zeroes one, taken from the machine's free list (newInst).
type dynInst struct {
	tid  int
	seq  uint64 // per-threadlet age
	pc   int
	inst isa.Inst
	meta *isa.Meta // points into isa's immutable metadata table

	// Operand capture. src[0] is Rs1, src[1] is Rs2.
	srcVal  [2]uint64
	srcProd [2]*dynInst

	oldMap  mapEntry // previous rename-map entry, for rollback
	result  uint64
	readyAt int64 // writeback cycle once executing

	// Memory state.
	addr    uint64
	memSize int
	// fwdSeq is the store-queue entry a load forwarded from.
	fwdSeq uint64

	// Branch state.
	pred         bpred.BranchState
	predTarget   int
	actualTarget int

	// dispRegion is the threadlet's active region when this instruction
	// dispatched (after hint effects), -1 when none. Commit-side pack
	// observation and region stats use it instead of the threadlet's current
	// region: a detach updates the threadlet at dispatch, so older in-flight
	// instructions from before the region would otherwise be misattributed
	// to it when they commit.
	dispRegion int64

	// Hint bookkeeping. The prev* fields snapshot threadlet epoch state a
	// hint mutated at dispatch, so wrong-path rollback can restore it.
	spawnedTid int32 // threadlet spawned by this detach, -1 otherwise
	// gen counts the reuses of this slot (newInst). A rename-map entry
	// records it, so an entry whose producer was since recycled is told
	// apart from one naming the current occupant (mapEntry.gen).
	gen        uint32
	prevRegion int64
	prevSkip   int

	// waiters are instructions whose operands this result feeds. The list
	// starts on waitBuf, so the usual fan-out of a few consumers needs no
	// allocation of its own.
	waiters []*dynInst
	waitBuf [waitBufLen]*dynInst
	// ckptWaiters are (threadlet, reg) checkpoint slots this result fills.
	ckptWaiters []ckptWaiter

	// One-byte state, grouped like the fields above.
	srcReady [2]bool
	hasDest  bool
	destReg  isa.Reg
	state    instState

	// Memory flags.
	addrValid bool
	loadFwdSQ bool // forwarded from own threadlet's store queue
	// memFaulted marks a load whose address failed mem.ValidateAccess: it
	// executed with a zero result and no memory-system access, and raises a
	// MemFault only if it commits (wrong-path bad addresses are harmless).
	memFaulted bool

	// Speculative-leak tracking (spectre.go). All five stay zero unless
	// Config.SpectreAnalysis or Config.DelaySpeculativeLoadDeps is set.
	taint     bool    // result derives from a transiently-loaded value
	srcTaint  [2]bool // operand taint, captured alongside the operand values
	transient bool    // load executed inside a transient window
	leakCand  bool    // transient load whose address was tainted (candidate)
	wakeHeld  bool    // result withheld from dependents (mitigation)

	// Branch flags.
	hasPred      bool
	predTaken    bool
	mispredicted bool

	// Hint flags.
	endsEpoch     bool
	isVerifyPoint bool
	prevDetached  bool
	prevVerify    bool

	squashed bool
}

// waitBufLen is the number of waiters an instruction stores inline.
const waitBufLen = 4

// release drops every pointer e holds to another instruction. It runs when e
// leaves the window (commit, rollback, purge): a finished instruction then
// keeps nothing older reachable, and a squashed waiter no longer names its
// producer, so wake skips it (DESIGN.md, "Instruction lifetime").
func (e *dynInst) release() {
	e.srcProd = [2]*dynInst{}
	e.oldMap.prod = nil
	e.waiters = nil
	e.waitBuf = [waitBufLen]*dynInst{}
}

type ckptWaiter struct {
	tid int
	reg isa.Reg
	gen uint64
}

// mapEntry is a rename-map slot: either a pending producer or a value.
// taint marks a resolved value that derives from a transiently-loaded one
// (spectre.go); pending entries carry taint on the producer instead.
//
// gen is prod.gen when the entry was made. A producer whose gen has moved on
// was recycled (see recycled); it had committed into the threadlet holding
// the entry, or filled the threadlet's checkpoint slot, so the register then
// reads as that threadlet's committedRegs value.
type mapEntry struct {
	prod  *dynInst
	val   uint64
	taint bool
	gen   uint32
}

// recycled reports whether the entry names a producer whose slot has since
// been freed and reused.
func (me *mapEntry) recycled() bool { return me.prod != nil && me.prod.gen != me.gen }

type fetchEntry struct {
	pc        int
	inst      isa.Inst
	meta      *isa.Meta
	readyAt   int64 // cycle the entry may rename (models front-end depth)
	pred      bpred.BranchState
	predTgt   int
	hasPred   bool
	predTaken bool
}

// threadlet is one execution context (§4): PC, rename map, ROB slice, and
// the LoopFrog epoch state.
type threadlet struct {
	id   int
	live bool

	// Front end.
	fetchPC        int
	fetchHalted    bool // stopped at reattach epoch end or HALT
	haltSeen       bool
	fetchReadyAt   int64
	fq             fifo[fetchEntry]
	lineTagFetched uint64 // last I-cache line fetched (for timing)
	lineValid      bool

	// Rename state.
	renameMap [isa.NumRegs]mapEntry
	// consumedStart marks start registers consumed from the initial map,
	// for packing repair decisions (§4.3).
	consumedStart [isa.NumRegs]bool

	// Committed architectural state of the threadlet. writtenMask marks
	// registers written by this epoch's own commits, so late checkpoint
	// fills never clobber newer values.
	committedRegs [isa.NumRegs]uint64
	writtenMask   [isa.NumRegs]bool
	seqCounter    uint64
	// specCommitted counts instructions committed while speculative;
	// specCommittedRegion is the in-parallel-region subset.
	specCommitted       uint64
	specCommittedRegion uint64
	// writtenThisIter tracks per-iteration first-write info for the packing
	// IV detector; reset at each committed detach.
	writtenThisIter [isa.NumRegs]bool
	// overflowStalled marks a drain stalled on a full SSB slice (§4.1.2);
	// it clears when the threadlet becomes architectural.
	overflowStalled bool
	// drainFaulted marks a drain stalled on an invalid (unaligned) store
	// address. The fault is deferred: a squash discards it with the
	// speculation; promotion to architectural surfaces it as a MemFault.
	drainFaulted bool
	// memFault is a faulted load this threadlet committed while speculative.
	// Like drainFaulted it is deferred: discarded on squash/restart, raised
	// through Run when the threadlet is promoted to architectural.
	memFault *MemFault

	// ROB slice (in-flight instructions, oldest first).
	rob fifo[*dynInst]

	// Post-commit store drain queue (the store buffer in front of SSB/L1D).
	drain fifo[*dynInst]

	// LoopFrog epoch state.
	activeRegion int64 // region the epoch belongs to; -1 when none
	// homeRegion is the region this context's epoch was spawned for, fixed
	// for the context's lifetime (-1 for the initial architectural context).
	// Unlike activeRegion it survives a speculative sync loop exit, so
	// squash attribution (region.go) always lands in a real region.
	homeRegion     int64
	detached       bool // spawned a successor for activeRegion
	skipReattach   int  // packed iterations still to execute (§4.3)
	pendingVerify  bool
	predictedStart [isa.NumRegs]uint64 // prediction handed to the successor
	epochEndSeq    uint64
	epochEndPC     int
	// epochFactor is the number of loop iterations this epoch covers (the
	// packing factor used when it spawned its successor), for size training.
	epochFactor int
	// detachWait counts front-end stall cycles waiting for IV resolution.
	detachWait int
	// robHeld/iqHeld track this threadlet's share of the shared windows,
	// for the per-threadlet occupancy caps that prevent an older epoch from
	// starving younger ones (cf. Table 1 footnote: static partitioning
	// performs similarly).
	robHeld, iqHeld int
	hasEpochEnd     bool
	epochStartPC    int

	// Checkpoint: the register starting state of the epoch (§4, "checkpoint
	// store"). pendingFrom[r] != nil while the value is an unresolved future
	// inherited from the parent at spawn.
	ckptRegs    [isa.NumRegs]uint64
	ckptPending [isa.NumRegs]*dynInst
	ckptGHR     uint64

	// Statistics for this epoch.
	epochCommitted uint64
	spawnedAt      int64

	// retireAt delays threadlet commit for in-flight conflict checks.
	retireAt int64

	// Speculative-leak tracking (spectre.go). ctlInFlight lists the seqs of
	// unresolved control instructions (conditional branches and JALR),
	// oldest first — the wrong-path transient window; ckptTaint mirrors
	// ckptRegs; pendingLeaks carries leak candidates that committed to this
	// threadlet while it was speculative, confirmed if the epoch squashes
	// and discarded if it promotes.
	ctlInFlight  []uint64
	ckptTaint    [isa.NumRegs]bool
	pendingLeaks []pendingLeak
}

func (t *threadlet) robCount() int { return t.rob.len() }

// fifo is a first-in first-out queue over one reused backing array. A pop
// clears the vacated slot and advances a head index; a push that finds the
// array full moves the live entries back to its front when they fill at most
// half of it, and grows the array otherwise. A queue in steady state never
// reallocates, unlike a slice popped with q = q[1:], which append copies to a
// new array every few pops, and it holds no stale pointers.
type fifo[T any] struct {
	buf  []T // the live entries are buf[head:]
	head int
}

func (q *fifo[T]) len() int   { return len(q.buf) - q.head }
func (q *fifo[T]) items() []T { return q.buf[q.head:] }
func (q *fifo[T]) front() T   { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.len() <= cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() {
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// truncate keeps the oldest n entries.
func (q *fifo[T]) truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
	if n == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Stats aggregates a run's counters.
type Stats struct {
	Cycles int64
	// ArchInsts counts instructions that became architectural (the program).
	ArchInsts uint64
	// SpecCommitted counts instructions committed to threadlets that were
	// later squashed (failed speculation, figure 8).
	SpecCommitted uint64
	// CommitSlotsUsed counts used commit-bandwidth slots (figure 1).
	CommitSlotsUsed uint64

	// Branch statistics.
	Branches            uint64
	Mispredicts         uint64
	IndirectMispredicts uint64

	// Memory statistics.
	Loads, Stores    uint64
	LoadReplaysLSQ   uint64 // intra-threadlet order violations
	LoadRetriesMSHR  uint64
	StoreDrainStalls uint64

	// LoopFrog statistics.
	Spawns          uint64
	Retires         uint64
	Squashes        [6]uint64 // indexed by core.SquashCause
	PackedSpawns    uint64
	PackRepairs     uint64
	SyncCancels     uint64
	HintNops        uint64
	DetachNoContext uint64

	// Threadlet occupancy: LiveCycles[k] = cycles with exactly k+1 live
	// threadlets; ActiveGE2/ActiveEq4 mirror figure 7's series.
	LiveCycles [8]uint64

	// Per-cycle commit attribution for figure 8.
	ArchCommitCycleSum uint64 // instructions committed while architectural
	SpecCommitCycleSum uint64 // instructions committed while speculative (eventually retired)

	// CommitSlots attributes every commit-bandwidth slot of every cycle to a
	// SlotClass (stall.go); the counters sum to Cycles x Width, making the
	// figure 1 utilisation and figure 8 stall breakdowns direct outputs.
	CommitSlots [NumSlotClasses]uint64

	// WrongPath counts fetch slots lost to redirects.
	RedirectStalls uint64

	// Sampled-window measurement (Config.WarmupInsts): the cycle and the
	// architectural instruction count at which the warmup target was first
	// reached. Zero when no warmup was configured or the run ended first; the
	// sampling driver then measures over the whole run.
	WarmupEndCycle int64
	WarmupEndInsts uint64
	// WarmupEndLive and EndLive are the speculative instructions committed
	// inside live (not yet promoted) threadlets at the warmup endpoint and at
	// the end of the run. ArchInsts jumps in bulk when an epoch promotes, so
	// an inst-aligned window endpoint would count whole epochs whose cycles
	// fell on the other side of the edge; ArchInsts+live is smooth across
	// promotions, and the sampling driver measures IPC between smooth
	// endpoints.
	WarmupEndLive uint64
	EndLive       uint64

	// Region-level: committed parallel-region instructions (for loop
	// speedup accounting) and total detaches seen.
	RegionArchInsts uint64
	Detaches        uint64

	// Speculative-leak detection (spectre.go, Config.SpectreAnalysis):
	// LeakCandidates counts transient loads whose address derived from a
	// transiently-loaded value when they reached the cache hierarchy; Leaks
	// counts the subset whose access was later squashed (the architectural
	// program never performed it); DelayedWakes counts load results withheld
	// by Config.DelaySpeculativeLoadDeps.
	LeakCandidates uint64
	Leaks          uint64
	DelayedWakes   uint64

	// Regions holds the per-region speculation attribution ledgers
	// (region.go), in first-touch order. The machine owns the backing array during a run; afterwards
	// it is read-only and by-value Stats copies share it. The telemetry
	// registry skips the field here (`metrics:"-"`) and re-exports it
	// through the region-keyed section instead.
	Regions []RegionLedger `metrics:"-"`

	Halted bool
}

// IPC returns architectural instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ArchInsts) / float64(s.Cycles)
}

// CommitUtilization returns the fraction of commit bandwidth used by
// architectural commits (figure 1's second series).
func (s *Stats) CommitUtilization(width int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ArchInsts) / float64(int64(width)*s.Cycles)
}

// MispredictRate returns branch mispredictions per committed branch.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}
