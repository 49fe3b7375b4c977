package cpu

// Per-cycle commit-slot attribution (figures 1 and 8). Every cycle the core
// has Width commit-bandwidth slots; each is classified as either retired
// work (architectural or speculative) or a stall with a cause. The counters
// sum exactly to Cycles x Width, so commit-utilisation and failed-speculation
// breakdowns are direct outputs rather than quantities derived after the
// fact.
//
// Unused slots in a cycle share one cause, resolved against the
// architectural threadlet (the only one whose forward progress is the
// program's): a top-down-style decomposition where the oldest blocking
// reason wins.

// SlotClass classifies one commit-bandwidth slot.
type SlotClass uint8

// Commit-slot classes. SlotExec and SlotStoreDrain extend the taxonomy with
// the two backend cases the remaining classes cannot express: waiting on
// execution/memory latency, and commit blocked behind the store-drain queue.
const (
	// SlotRetiredArch: slot committed an instruction of the architectural
	// threadlet.
	SlotRetiredArch SlotClass = iota
	// SlotRetiredSpec: slot committed an instruction of a speculative
	// threadlet (may later be squashed; see Stats.SpecCommitted).
	SlotRetiredSpec
	// SlotFrontend: the architectural ROB was empty — fetch/decode could not
	// deliver work.
	SlotFrontend
	// SlotROBFull: the shared ROB is exhausted, stalling dispatch while the
	// architectural head waits on execution.
	SlotROBFull
	// SlotIQFull: the shared issue queue is exhausted.
	SlotIQFull
	// SlotLSQFull: the load or store queue is exhausted.
	SlotLSQFull
	// SlotSSBOverflow: a threadlet's SSB slice overflowed and its drain is
	// stalled (§4.1.2).
	SlotSSBOverflow
	// SlotSquashDrain: the front end is refilling after a threadlet squash.
	SlotSquashDrain
	// SlotExec: the architectural head is still executing (ALU/memory
	// latency) with no structural backpressure.
	SlotExec
	// SlotStoreDrain: commit or retire blocked behind the post-commit store
	// drain queue.
	SlotStoreDrain

	NumSlotClasses = iota
)

// slotNames are the stable exported metric/trace names, index-aligned with
// the SlotClass constants.
var slotNames = [NumSlotClasses]string{
	"retired-arch",
	"retired-spec",
	"frontend-stall",
	"rob-full",
	"iq-full",
	"lsq-full",
	"ssb-overflow",
	"squash-drain",
	"exec-latency",
	"store-drain",
}

// String names the slot class.
func (c SlotClass) String() string {
	if int(c) < len(slotNames) {
		return slotNames[c]
	}
	return "unknown"
}

// SlotClassNames returns the metric names of all slot classes, index-aligned
// with Stats.CommitSlots.
func SlotClassNames() [NumSlotClasses]string { return slotNames }

// attributeCommitSlots classifies this cycle's Width commit slots. Called
// once per cycle immediately after commit, before younger pipeline stages
// mutate the occupancy the classification reads.
func (m *Machine) attributeCommitSlots(archUsed, totalUsed uint64) {
	m.stats.CommitSlots[SlotRetiredArch] += archUsed
	m.stats.CommitSlots[SlotRetiredSpec] += totalUsed - archUsed
	if idle := uint64(m.cfg.Width) - totalUsed; idle > 0 {
		cause := m.stallCause()
		m.stats.CommitSlots[cause] += idle
		// Stall slots charge the architectural threadlet's active region
		// (its progress is the program's); -1 is the outside bucket. The
		// retired-slot classes charge per instruction at commit instead.
		m.ledger(m.threads[m.archTid()].activeRegion).Slots[cause] += idle
	}
}

// stallCause resolves why the architectural threadlet could not fill the
// remaining commit slots this cycle. Exactly one cause per cycle, evaluated
// oldest-reason-first so the breakdown is deterministic.
func (m *Machine) stallCause() SlotClass {
	t := m.threads[m.archTid()]
	if t.rob.len() == 0 {
		switch {
		case m.now < m.recoverUntil:
			return SlotSquashDrain
		case t.drain.len() > 0:
			// Epoch fully committed; retire is waiting on the drain queue.
			return SlotStoreDrain
		default:
			return SlotFrontend
		}
	}
	if m.at(t.rob.front()).state == stDone {
		// The head is complete but blocked from committing: a HALT waiting
		// for the threadlet to become architectural or for stores to drain.
		return SlotStoreDrain
	}
	// The head is in flight. Structural backpressure upstream is the cause
	// when a shared window is exhausted; otherwise it is plain latency.
	switch {
	case m.robUsed >= m.cfg.ROBSize:
		return SlotROBFull
	case m.iqUsed >= m.cfg.IQSize:
		return SlotIQFull
	case m.lqUsed >= m.cfg.LQSize || m.sqUsed >= m.cfg.SQSize:
		return SlotLSQFull
	}
	for _, tid := range m.order {
		if m.threads[tid].overflowStalled {
			return SlotSSBOverflow
		}
	}
	return SlotExec
}

// SetSlotSampler installs a callback invoked every `every` cycles with the
// commit-slot counts accumulated since the previous sample (for trace
// counter tracks). Pass nil to disable; the disabled path costs one nil
// check per cycle. The callback must not retain the machine.
func (m *Machine) SetSlotSampler(every int64, fn func(cycle int64, delta [NumSlotClasses]uint64)) {
	if fn == nil || every <= 0 {
		m.slotSampler = nil
		return
	}
	m.slotSampler = fn
	m.slotEvery = every
	m.slotTick = 0
	m.lastSlots = m.stats.CommitSlots
}

// FlushSlotSample emits the residual partial sample accumulated since the
// last full interval; call once after Run when a sampler is installed.
func (m *Machine) FlushSlotSample() {
	if m.slotSampler == nil {
		return
	}
	m.emitSlotSample()
}

func (m *Machine) emitSlotSample() {
	var delta [NumSlotClasses]uint64
	any := false
	for i := range delta {
		delta[i] = m.stats.CommitSlots[i] - m.lastSlots[i]
		any = any || delta[i] != 0
	}
	if !any {
		return
	}
	m.lastSlots = m.stats.CommitSlots
	m.slotSampler(m.now, delta)
}

// tickSlotSampler advances the sampling countdown; called once per cycle
// when a sampler is installed.
func (m *Machine) tickSlotSampler() {
	m.slotTick++
	if m.slotTick >= m.slotEvery {
		m.slotTick = 0
		m.emitSlotSample()
	}
}
