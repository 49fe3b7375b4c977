package cpu

// Speculative-leak tracking: the dynamic half of the LF3xx analysis (the
// static half is internal/lint's gadget pass). The model follows the
// taint-tracking line of Spectre defences (STT, ShadowBinding): a load that
// executes inside a *transient window* may observe a value the architectural
// program never reads, so its result is tainted; taint propagates through
// the renamed dataflow (operand capture, wakeup, spawn inheritance,
// checkpoint fills) and through SSB granules written by tainted store data.
// A transient load whose *address* is tainted is the classic second access
// of a bounds-check-bypass gadget: when it reaches the cache hierarchy it is
// recorded as a leak candidate, and if the access is later squashed it is
// confirmed as a leak — the cache changed state on behalf of an access the
// program never made.
//
// Two transient windows exist in this machine (§4):
//
//   - wrong-path: between a conditional branch's (or JALR's) dispatch and
//     its execute-time resolution, younger instructions of the same
//     threadlet may be down a mispredicted path (rollbackTo);
//   - epoch speculation: everything a speculative threadlet executes before
//     its promotion at tryRetire may be discarded by squashFrom.
//
// Config.DelaySpeculativeLoadDeps is the mitigation: a transient load's
// result is withheld from dependents (wakeHeld) until the load is safe —
// its threadlet architectural and no older control flow unresolved — at
// which point the taint is cleared and the wakeup delivered. Tainted values
// therefore never reach an address computation, and candidates drop to zero
// by construction; the cost is the extra latency on the held forwarding
// edges, measured per workload in BENCH_spectre.json.
//
// Everything here is gated on m.spectreLive: a machine without either knob
// set pays nothing on the hot paths.

import (
	"sort"

	"loopfrog/internal/isa"
)

// pendingLeak is a leak candidate that committed to a speculative threadlet
// and now rides with it: confirmed if the epoch squashes, dropped at
// promotion.
type pendingLeak struct {
	pc     int
	region int64
}

// transientAt reports whether an instruction of threadlet t with age seq is
// executing inside a transient window: the threadlet itself is speculative,
// or an older control instruction in the same threadlet is unresolved.
func (m *Machine) transientAt(t *threadlet, seq uint64) bool {
	return m.isSpec(t.id) || (len(t.ctlInFlight) > 0 && t.ctlInFlight[0] < seq)
}

// ctlDispatched records an unresolved control instruction. Seqs arrive in
// dispatch order, so the slice stays sorted oldest-first.
func (t *threadlet) ctlDispatched(seq uint64) {
	t.ctlInFlight = append(t.ctlInFlight, seq)
}

// ctlResolved removes a control instruction that reached writeback.
func (t *threadlet) ctlResolved(seq uint64) {
	for i, s := range t.ctlInFlight {
		if s == seq {
			t.ctlInFlight = append(t.ctlInFlight[:i], t.ctlInFlight[i+1:]...)
			return
		}
	}
}

// ctlSquashed drops the control instructions a rollback from fromSeq on
// removed from the pipeline. The slice is sorted, so everything from the
// first squashed entry can go.
func (t *threadlet) ctlSquashed(fromSeq uint64) {
	for i, s := range t.ctlInFlight {
		if s >= fromSeq {
			t.ctlInFlight = t.ctlInFlight[:i]
			return
		}
	}
}

// noteLeakCandidate records a transient load about to probe the cache with a
// taint-derived address. Guarded by e.leakCand at the call site so an MSHR
// replay of the same access counts once.
func (m *Machine) noteLeakCandidate(e *dynInst) {
	e.leakCand = true
	m.stats.LeakCandidates++
}

// confirmLeak upgrades a candidate whose access was squashed: the program
// never performed it, yet the hierarchy observed it.
func (m *Machine) confirmLeak(pc int, region int64) {
	m.stats.Leaks++
	if m.leakPCs == nil {
		m.leakPCs = make(map[int]uint64)
	}
	m.leakPCs[pc]++
	m.ledger(region).Leaks++
}

// squashSpectre settles the leak-tracking state of a squashed instruction:
// candidates confirm (rollbackTo and purgeThreadlet call this on every
// victim).
func (m *Machine) squashSpectre(e *dynInst) {
	if e.leakCand {
		m.confirmLeak(e.pc, e.dispRegion)
	}
}

// promoteSpectre clears speculative taint when a threadlet is promoted to
// architectural: its committed state is now the program's, so candidates it
// carried were correct-path and its resolved values are no longer
// transiently sourced. In-flight instructions keep their taint — they can
// still be wrong-path within the now-architectural threadlet.
func (m *Machine) promoteSpectre(b *threadlet) {
	b.pendingLeaks = b.pendingLeaks[:0]
	b.ckptTaint = [isa.NumRegs]bool{}
	for r := range b.renameMap {
		if b.renameMap[r].prod == 0 {
			b.renameMap[r].taint = false
		}
	}
}

// taintStoreGranules marks SSB granules written with tainted data, so a later
// speculative load combining them observes a tainted value.
func (m *Machine) taintStoreGranules(tid int, granules []uint64) {
	if m.ssbTaint[tid] == nil {
		m.ssbTaint[tid] = make(map[uint64]bool, 8)
	}
	for _, g := range granules {
		m.ssbTaint[tid][g] = true
	}
}

// granulesTainted reports whether any of the granules is taint-marked in any
// slice of the multi-version read chain.
func (m *Machine) granulesTainted(chain []int, granules []uint64) bool {
	for _, tid := range chain {
		set := m.ssbTaint[tid]
		if len(set) == 0 {
			continue
		}
		for _, g := range granules {
			if set[g] {
				return true
			}
		}
	}
	return false
}

// clearSSBTaint drops a slice's granule taint alongside ssb.Squash/Merge.
func (m *Machine) clearSSBTaint(tid int) {
	if m.spectreLive && m.ssbTaint[tid] != nil {
		m.ssbTaint[tid] = nil
	}
}

// releaseDelayedWakes delivers withheld load results whose transient window
// has closed: the threadlet is architectural and no older control flow in it
// is unresolved. Runs at the top of each cycle, before writeback, so a
// release and its dependents' issue are at least a cycle apart. Taint clears
// at release — the value is safe now — which is exactly why the mitigation
// eliminates leaks: no tainted value ever wakes an address computation.
//
// Deadlock-freedom: a held load only waits on (a) its threadlet reaching
// architectural state — driven by the retire chain, which never needs a
// held result in a *speculative* threadlet — and (b) strictly older control
// resolving, whose operand producers are older still, so by induction on
// age the oldest blocked chain always releases.
func (m *Machine) releaseDelayedWakes() {
	if m.delayedWake.len() == 0 {
		return
	}
	kept := 0
	for _, h := range m.delayedWake.items() {
		e := m.at(h)
		if e.squashed {
			m.freeInst(e) // its dependents were squashed with it
			continue
		}
		t := m.threads[e.tid]
		if !m.isSpec(e.tid) && !(len(t.ctlInFlight) > 0 && t.ctlInFlight[0] < e.seq) {
			e.wakeHeld = false
			e.taint = false
			m.wake(e)
			continue
		}
		m.delayedWake.buf[kept] = h
		kept++
	}
	m.delayedWake.truncate(kept)
}

// LeakSite is one confirmed-leak program counter and its count.
type LeakSite struct {
	PC    int    `json:"pc"`
	Count uint64 `json:"count"`
}

// LeakReport summarises a run's speculative-leak detection: candidate and
// confirmed counts, held wakeups, and the confirmed sites by PC.
type LeakReport struct {
	Candidates   uint64     `json:"candidates"`
	Confirmed    uint64     `json:"confirmed"`
	DelayedWakes uint64     `json:"delayed_wakes"`
	Sites        []LeakSite `json:"sites,omitempty"`
}

// LeakReport returns the machine's speculative-leak summary. Meaningful once
// the run finished and only when Config.SpectreAnalysis (or the mitigation)
// was enabled.
func (m *Machine) LeakReport() LeakReport {
	rep := LeakReport{
		Candidates:   m.stats.LeakCandidates,
		Confirmed:    m.stats.Leaks,
		DelayedWakes: m.stats.DelayedWakes,
	}
	for pc, n := range m.leakPCs {
		rep.Sites = append(rep.Sites, LeakSite{PC: pc, Count: n})
	}
	sort.Slice(rep.Sites, func(i, j int) bool { return rep.Sites[i].PC < rep.Sites[j].PC })
	return rep
}
