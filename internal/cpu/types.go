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

// dynInst is one dynamic instruction in flight, taken from the machine's
// slots at dispatch (newInst). It holds no Go pointer: every link to another
// instruction is an instRef, so a pipeline write never pays a GC write
// barrier and the collector never scans the window (DESIGN.md, "Instruction
// lifetime"). Its fields fall in three groups by how a reused slot is made
// ready, so that newInst clears only the last: the head, which dispatch
// writes in full; the links release empties when an instruction leaves the
// window; and the tail (instTail), cleared in one store. Within a group,
// word-sized fields come first and one-byte flags last, so the struct
// carries little padding.
type dynInst struct {
	// Written by every dispatch (dispatchOne; newInst bumps gen) before any
	// other stage can reach the instruction.
	tid   int
	epoch uint64 // the threadlet's epoch (threadlet.epoch)
	seq   uint64 // per-threadlet age
	pc    int
	inst  isa.Inst
	pred  bpred.BranchState
	// predTarget is the front end's next-fetch assumption (fetchEntry).
	predTarget int
	memSize    int32
	spawnedTid int32 // threadlet spawned by this detach, -1 otherwise
	// gen counts the reuses of this slot (newInst). A rename-map entry
	// records it, so an entry whose producer was since recycled is told
	// apart from one naming the current occupant (mapEntry.gen).
	gen uint32
	// self is the slot's own handle, set when newInst appends the slot.
	self instRef
	// Operand readiness; src[0] is Rs1, src[1] is Rs2.
	srcReady  [2]bool
	hasDest   bool
	destReg   isa.Reg
	hasPred   bool
	predTaken bool

	// Links to other instructions, empty whenever the slot is free: release
	// clears them as the instruction leaves the window, and a fresh slot
	// starts zero. oldMap's value part is stale on reuse; it is read only
	// when hasDest, and dispatch writes it then.
	srcProd [2]instRef
	// waiters are instructions whose operands this result feeds: the first
	// waitBufLen inline in waitBuf[:nWait], the rest on a list of the
	// machine's waitNodes from waitHead to waitTail (0 when none).
	waitBuf            [waitBufLen]instRef
	waitHead, waitTail uint32
	oldMap             mapEntry // previous rename-map entry, for rollback
	nWait              uint8

	instTail
}

// meta returns the instruction's static opcode metadata.
func (e *dynInst) meta() *isa.Meta { return isa.MetaOf(e.inst.Op) }

// instTail is the part of a dynInst that starts zero at every dispatch.
type instTail struct {
	srcVal  [2]uint64 // operand values, captured at rename or wakeup
	result  uint64
	readyAt int64 // writeback cycle once executing

	addr uint64

	// dispRegion is the threadlet's active region when this instruction
	// dispatched (after hint effects), -1 when none. Commit-side pack
	// observation and region stats use it instead of the threadlet's current
	// region: a detach updates the threadlet at dispatch, so older in-flight
	// instructions from before the region would otherwise be misattributed
	// to it when they commit.
	dispRegion int64

	// Hint bookkeeping. The prev* fields snapshot threadlet epoch state a
	// hint mutated at dispatch, so wrong-path rollback can restore it.
	prevRegion   int64
	prevSkip     int32
	actualTarget int32

	state instState

	// ckptWaited marks a producer with entries in m.ckptWaits: checkpoint
	// slots of younger threadlets its result fills (addCkptWait).
	ckptWaited bool

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

// instRef is the handle of a dynInst in its machine's window
// (Machine.slots): the slot's index plus one, so that the zero instRef names
// no instruction.
type instRef uint32

// execRef is an executing instruction with the cycle its result is ready,
// so that writeback passes over one still in flight without looking it up.
type execRef struct {
	h       instRef
	readyAt int64
}

// waitNode is one waiter past a producer's inline ones, on a singly linked
// list through the machine's waitNodes; index 0 is the null link.
type waitNode struct {
	w    instRef
	next uint32
}

// ckptWait is one checkpoint slot, register reg of threadlet tid, that the
// producer prod fills when it completes. tgen is the threadlet's generation
// (Machine.gens) when the slot was made: a slot of a context since respawned
// is skipped.
type ckptWait struct {
	prod instRef
	tid  int32
	reg  isa.Reg
	tgen uint64
}

// mapEntry is a rename-map slot: either a pending producer or a value.
// taint marks a resolved value that derives from a transiently-loaded one
// (spectre.go); pending entries carry taint on the producer instead.
//
// gen is the producer's gen when the entry was made. A producer whose gen
// has moved on was recycled: its slot was freed and reused. It had
// committed into the threadlet holding the entry, or filled the
// threadlet's checkpoint slot, so the register then reads as that
// threadlet's committedRegs value, with committedTaint as its taint.
type mapEntry struct {
	val   uint64
	prod  instRef
	gen   uint32
	taint bool
}

// memRec is one load or store in a threadlet's ROB, as its memory index
// holds it. Dispatch pushes it, execution fills in the address, commit pops
// it, and a rollback or purge truncates it with the ROB. The searches read
// these records and look e up only on a hit.
type memRec struct {
	seq  uint64
	addr uint64 // meaningful once valid
	// fwdSeq is the store a load forwarded from, 0 when none. A load that
	// forwarded from the store of age 0 reads alike, and correctly: the
	// check it feeds (execStore) asks only whether fwdSeq is younger than a
	// given store.
	fwdSeq uint64
	e      instRef
	size   int32
	valid  bool // executed: addr is resolved
}

// overlaps reports whether [a, a+asz) and [b, b+bsz) share a byte.
func overlaps(a uint64, asz int32, b uint64, bsz int32) bool {
	return a < b+uint64(bsz) && b < a+uint64(asz)
}

// recIndex returns the index of the first record in recs whose age is at
// least seq; like the ROB, an index is in strictly increasing age order.
func recIndex(recs []memRec, seq uint64) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// recOf returns e's record in idx, or nil when e has none: an instruction
// squashed earlier in the same issue pass still executes, after rollbackTo
// dropped its record.
func recOf(idx *fifo[memRec], e *dynInst) *memRec {
	recs := idx.items()
	if i := recIndex(recs, e.seq); i < len(recs) && recs[i].e == e.self {
		return &recs[i]
	}
	return nil
}

// fetchEntry is one fetched instruction waiting to rename. Its instruction
// and metadata are read from the program's shared predecoded image at pc
// (Machine.code) instead of being copied or pointed to.
type fetchEntry struct {
	pc        int
	readyAt   int64 // cycle the entry may rename (models front-end depth)
	pred      bpred.BranchState
	predTgt   int
	hasPred   bool
	predTaken bool
}

// fetchQueue is a threadlet's fetch queue: a ring over an array sized once,
// for the most entries fetch lets a threadlet hold. Fetch fills a claimed
// slot in place. An entry holds no pointer, so a pop or reset leaves its
// slot as it is instead of clearing it.
type fetchQueue struct {
	buf     []fetchEntry
	head, n int
}

func newFetchQueue(capacity int) fetchQueue {
	return fetchQueue{buf: make([]fetchEntry, capacity)}
}

func (q *fetchQueue) len() int   { return q.n }
func (q *fetchQueue) full() bool { return q.n == len(q.buf) }

// front returns the oldest entry of a non-empty queue.
func (q *fetchQueue) front() *fetchEntry { return &q.buf[q.head] }

// push claims the slot behind the youngest entry of a queue that is not
// full; the caller overwrites all of it.
func (q *fetchQueue) push() *fetchEntry {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.n++
	return &q.buf[i]
}

// pop drops the oldest entry of a non-empty queue.
func (q *fetchQueue) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// reset empties the queue.
func (q *fetchQueue) reset() { q.head, q.n = 0, 0 }

// threadlet is one execution context (§4): PC, rename map, ROB slice, and
// the LoopFrog epoch state.
type threadlet struct {
	id   int
	live bool
	// epoch numbers the threadlet's spawn, 0 for the initial context. It
	// grows along m.order and survives a restart, so it orders instructions
	// of different threadlets as their epochs are ordered (olderThan).
	epoch uint64

	// Front end.
	fetchPC        int
	fetchHalted    bool // stopped at reattach epoch end or HALT
	haltSeen       bool
	fetchReadyAt   int64
	fq             fetchQueue
	lineTagFetched uint64 // last I-cache line fetched (for timing)
	lineValid      bool

	// Rename state.
	renameMap [isa.NumRegs]mapEntry
	// consumedStart marks start registers consumed from the initial map,
	// for packing repair decisions (§4.3).
	consumedStart [isa.NumRegs]bool

	// Committed architectural state of the threadlet. writtenMask marks
	// registers written by this epoch's own commits, so late checkpoint
	// fills never clobber newer values. committedTaint is the taint of each
	// committedRegs value (spectre.go): a register whose rename entry names
	// a recycled producer reads both from here.
	committedRegs  [isa.NumRegs]uint64
	committedTaint [isa.NumRegs]bool
	writtenMask    [isa.NumRegs]bool
	seqCounter     uint64
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
	rob fifo[instRef]
	// stIdx and ldIdx index the ROB's stores and loads, oldest first, by
	// value (memRec): the store-to-load searches scan them instead of the ROB.
	stIdx, ldIdx fifo[memRec]

	// Post-commit store drain queue (the store buffer in front of SSB/L1D).
	drain fifo[instRef]

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
	// store"). ckptPending[r] != 0 while the value is an unresolved future
	// inherited from the parent at spawn.
	ckptRegs    [isa.NumRegs]uint64
	ckptPending [isa.NumRegs]instRef
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

// reset makes t the empty, idle context id, with no epoch and no region,
// but keeps the backing arrays of its queues, so that a spawn or a new
// machine does not regrow them.
func (t *threadlet) reset(id int) {
	rob, stIdx, ldIdx, drain, fq := t.rob, t.stIdx, t.ldIdx, t.drain, t.fq
	rob.truncate(0)
	stIdx.truncate(0)
	ldIdx.truncate(0)
	drain.truncate(0)
	fq.reset()
	ctl, leaks := t.ctlInFlight[:0], t.pendingLeaks[:0]
	*t = threadlet{id: id, fq: fq, rob: rob, stIdx: stIdx, ldIdx: ldIdx, drain: drain,
		activeRegion: -1, homeRegion: -1, ctlInFlight: ctl, pendingLeaks: leaks}
}

// fifo is a first-in first-out queue over one reused backing array: the
// live entries are buf[head:head+n]. A push that finds the array's end
// moves the live entries back to its front when they fill at most half of
// it, and grows the array otherwise. A queue in steady state never
// reallocates, and since pushes and pops write only its indices, neither
// takes a GC write barrier: the element types are pointer-free, so nothing
// vacated needs clearing.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (q *fifo[T]) len() int   { return q.n }
func (q *fifo[T]) items() []T { return q.buf[q.head : q.head+q.n] }
func (q *fifo[T]) front() T   { return q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if q.head+q.n == len(q.buf) {
		if q.head > 0 && 2*q.n <= len(q.buf) {
			copy(q.buf, q.items())
		} else {
			buf := make([]T, max(2*len(q.buf), 16))
			copy(buf, q.items())
			q.buf = buf
		}
		q.head = 0
	}
	q.buf[q.head+q.n] = v
	q.n++
}

func (q *fifo[T]) pop() {
	q.head++
	q.n--
	if q.n == 0 {
		q.head = 0
	}
}

// truncate keeps the oldest n entries.
func (q *fifo[T]) truncate(n int) {
	q.n = n
	if n == 0 {
		q.head = 0
	}
}

// list is a list over a backing array that only grows: the entries are
// buf[:n]. Pushing, truncating and filtering in place write n, never the
// slice, so that none of them takes a GC write barrier while the collector
// is marking; only growing the array does.
type list[T any] struct {
	buf []T
	n   int
}

func (l *list[T]) len() int   { return l.n }
func (l *list[T]) items() []T { return l.buf[:l.n] }

func (l *list[T]) push(v T) {
	if l.n == len(l.buf) {
		l.buf = append(l.buf, v)
		l.buf = l.buf[:cap(l.buf)]
	} else {
		l.buf[l.n] = v
	}
	l.n++
}

// truncate keeps the first n entries.
func (l *list[T]) truncate(n int) { l.n = n }

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
