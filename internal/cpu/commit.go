package cpu

import (
	"loopfrog/internal/core"
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
)

// commit retires up to Width completed instructions per cycle to their
// threadlets, oldest threadlet first. This is the first of the paper's two
// commit levels: instructions commit to their threadlet; the threadlet
// itself commits to the architectural state at retire (§4).
func (m *Machine) commit() {
	budget := m.cfg.Width
	snapshot := m.commitSnap[:copy(m.commitSnap, m.order)]
	for _, tid := range snapshot {
		t := m.threads[tid]
		if !t.live || m.orderIdx(tid) < 0 {
			continue // squashed by an earlier threadlet's verify this cycle
		}
		for budget > 0 && t.rob.len() > 0 {
			e := m.at(t.rob.front())
			if e.state != stDone || e.wakeHeld {
				// A withheld load result (spectre.go mitigation) keeps its
				// ROB slot until the wakeup is released: a committed entry
				// could no longer be marked squashed, and the release
				// predicate needs the squash marker to stay sound.
				break
			}
			// Side-effecting operations must wait until the threadlet is
			// architectural (§3.2) and all earlier stores have performed.
			if e.inst.Op == isa.HALT && (m.isSpec(tid) || t.drain.len() > 0) {
				break
			}
			m.commitOne(t, e)
			budget--
			if m.memFault != nil {
				// The program faulted at this instruction: nothing younger
				// may commit (a HALT behind a faulting load must not halt
				// the machine before Run reports the fault).
				return
			}
		}
		if budget == 0 {
			return
		}
	}
}

// commitOne commits a single instruction to its threadlet.
func (m *Machine) commitOne(t *threadlet, e *dynInst) {
	e.state = stCommitted
	m.release(e)
	t.rob.pop()
	m.robUsed--
	t.robHeld--
	arch := !m.isSpec(t.id)
	inRegion := e.dispRegion >= 0

	if e.hasDest {
		if e.destReg.IsFP() {
			m.fpRegsUsed--
		} else {
			m.intRegsUsed--
		}
		if arch {
			// Architectural commit closes every transient window the value
			// could have been sourced in: the taint dies here.
			e.taint = false
		}
		t.committedRegs[e.destReg] = e.result
		t.committedTaint[e.destReg] = e.taint
		t.writtenMask[e.destReg] = true
	}
	if e.leakCand && !arch {
		// The candidate committed to a speculative epoch: it confirms if the
		// epoch squashes, and is dropped at promotion (spectre.go).
		t.pendingLeaks = append(t.pendingLeaks, pendingLeak{pc: e.pc, region: e.dispRegion})
	}
	meta := e.meta()
	if meta.IsLoad {
		m.lqUsed--
		t.ldIdx.pop()
		if e.memFaulted {
			// The bad-address load is on the committed path. Architectural:
			// the program faults now. Speculative: defer — a later squash
			// discards it, promotion surfaces it (tryRetire).
			mf := &MemFault{PC: e.pc, Addr: e.addr, Size: int(e.memSize), Cycle: m.now,
				Err: mem.ValidateAccess(e.addr, int(e.memSize))}
			if arch {
				m.memFault = mf
			} else if t.memFault == nil {
				t.memFault = mf
			}
		}
	}
	if meta.IsStore {
		// The store performs later, from the post-commit drain queue; the
		// SQ entry is held until then.
		t.stIdx.pop()
		t.drain.push(e.self)
	}
	if meta.IsBranch {
		m.stats.Branches++
		if e.mispredicted {
			m.stats.Mispredicts++
		}
		taken := e.result == 1
		m.bp.UpdateBranch(t.id, e.pc, taken, e.pred)
	}
	if e.inst.Op == isa.JALR {
		m.bp.UpdateIndirect(e.pc, int(e.actualTarget))
	}

	// Iteration-packing bookkeeping (§4.3): live-in detection over the
	// contiguous committed stream of the epoch, and training/verification at
	// committed detaches.
	if inRegion {
		region := e.dispRegion
		if meta.HasRs1 && e.inst.Rs1 != isa.X0 && !t.writtenThisIter[e.inst.Rs1] {
			m.pack.ObserveLiveIn(region, e.inst.Rs1)
		}
		if meta.HasRs2 && e.inst.Rs2 != isa.X0 && !t.writtenThisIter[e.inst.Rs2] {
			m.pack.ObserveLiveIn(region, e.inst.Rs2)
		}
		if e.hasDest {
			m.pack.ObserveWrite(region, e.destReg)
			t.writtenThisIter[e.destReg] = true
		}
	}
	if e.inst.Op == isa.DETACH {
		t.writtenThisIter = [isa.NumRegs]bool{}
		if e.isVerifyPoint {
			m.packVerify(t, e.dispRegion)
		}
	}

	if e.inst.Op == isa.HALT && arch {
		m.halted = true
	}

	t.epochCommitted++
	m.stats.CommitSlotsUsed++
	if arch {
		m.stats.ArchInsts++
		m.stats.ArchCommitCycleSum++
		m.lastArchCommit = m.now
		if inRegion {
			m.stats.RegionArchInsts++
		}
		m.ledger(e.dispRegion).Slots[SlotRetiredArch]++
	} else {
		t.specCommitted++
		if inRegion {
			t.specCommittedRegion++
		}
		m.ledger(e.dispRegion).Slots[SlotRetiredSpec]++
	}
	if !meta.IsStore {
		m.freeInst(e) // a store is freed when it drains
	}
}

// packVerify runs the §4.3 verification at the parent's verification-point
// detach: compare the IV prediction handed to the successor against the
// actual register values. Mispredicted registers are silently repaired in
// the successor if their stale value was never consumed; otherwise the
// successor chain is squashed and restarted from corrected values. region is
// the verify-point detach's dispatch region, for ledger attribution (the
// threadlet's active region can have moved on between dispatch and commit).
func (m *Machine) packVerify(t *threadlet, region int64) {
	t.pendingVerify = false
	idx := m.orderIdx(t.id)
	if idx < 0 || idx+1 >= len(m.order) {
		return // successor already gone
	}
	m.ledger(region).PackVerifies++
	succ := m.threads[m.order[idx+1]]
	var bad []isa.Reg
	for _, iv := range m.pack.IVs(t.activeRegion) {
		if t.predictedStart[iv] != t.committedRegs[iv] {
			bad = append(bad, iv)
		}
	}
	if len(bad) == 0 {
		return
	}
	m.pack.Mispredicts++
	m.ledger(region).PackMispredicts++
	mustSquash := false
	for _, r := range bad {
		succ.ckptRegs[r] = t.committedRegs[r]
		if succ.consumedStart[r] {
			mustSquash = true
		}
	}
	if mustSquash {
		m.squashFrom(succ.id, core.SquashPackMispredict, true)
		return
	}
	// Safe repair: the stale values were never consumed.
	for _, r := range bad {
		if succ.renameMap[r].prod == 0 && !succ.writtenMask[r] {
			succ.renameMap[r] = mapEntry{val: t.committedRegs[r]}
			succ.committedRegs[r] = t.committedRegs[r]
			succ.committedTaint[r] = false
		}
	}
	m.stats.PackRepairs++
	m.ledger(region).PackRepairs++
}

// drainStores performs committed stores, oldest threadlet first, limited by
// the store pipes. Architectural stores go to memory and the L1D;
// speculative stores go to the threadlet's SSB slice, where Algorithm 1's
// write check runs (§4.1, §4.2).
func (m *Machine) drainStores() {
	budget := m.cfg.StorePipes
	snapshot := m.drainSnap[:copy(m.drainSnap, m.order)]
	for _, tid := range snapshot {
		t := m.threads[tid]
		if !t.live || m.orderIdx(tid) < 0 {
			continue
		}
		for budget > 0 && t.drain.len() > 0 {
			s := m.at(t.drain.front())
			if !m.isSpec(tid) {
				if err := mem.ValidateAccess(s.addr, int(s.memSize)); err != nil {
					// The bad store became architectural, so sequential
					// execution faults identically: a program error, not a
					// model bug. Latch it for Run and stop the machine's
					// drains (nothing younger may perform either).
					m.memFault = &MemFault{PC: s.pc, Addr: s.addr, Size: int(s.memSize), Cycle: m.now, Err: err}
					return
				}
				if _, ok := m.hier.Store(s.addr, m.now); !ok {
					m.stats.StoreDrainStalls++
					break
				}
				m.mem.Write(s.addr, int(s.memSize), s.srcVal[1])
				victim, squash := m.cd.OnWrite(tid, m.granules(s.addr, int(s.memSize)), m.youngerThan(tid))
				if m.inj != nil {
					victim, squash = m.injectConflict(tid, victim, squash)
				}
				if squash {
					m.squashFrom(victim, core.SquashConflict, true)
				}
			} else {
				if t.overflowStalled || t.drainFaulted {
					break
				}
				if m.inj != nil && m.inj.ForceOverflow(m.now) {
					m.squashFrom(tid, core.SquashOverflow, true)
					break
				}
				if mem.ValidateAccess(s.addr, int(s.memSize)) != nil {
					// Speculative bad address: defer. The SSB cannot hold the
					// write (it would corrupt granule masks), so the drain
					// stalls here; a squash discards the fault, promotion to
					// architectural surfaces it above.
					t.drainFaulted = true
					break
				}
				chain := m.chainUpTo(tid)
				res := m.ssb.Write(tid, s.addr, int(s.memSize), s.srcVal[1], chain, m.now)
				if res.Overflow {
					// §4.1.2: the slice cannot take the write; stall the
					// drain until the threadlet becomes architectural, and
					// teach the region monitor the loop is unprofitable.
					t.overflowStalled = true
					if t.activeRegion >= 0 {
						m.mon.OnSquash(t.activeRegion, core.SquashOverflow)
					}
					break
				}
				if m.spectreLive && s.srcTaint[1] {
					// Tainted data entered the slice: a later speculative
					// load combining these granules observes a tainted value.
					m.taintStoreGranules(tid, res.Granules)
				}
				if len(res.FillGranules) > 0 {
					// The partial-granule fill read joins the read set and
					// can later surface as a false-sharing conflict (§4.1.1).
					m.cd.OnRead(tid, res.FillGranules)
				}
				victim, squash := m.cd.OnWrite(tid, res.Granules, m.youngerThan(tid))
				if m.inj != nil {
					victim, squash = m.injectConflict(tid, victim, squash)
				}
				if squash {
					m.squashFrom(victim, core.SquashConflict, true)
				}
			}
			t.drain.pop()
			m.freeInst(s)
			m.sqUsed--
			budget--
		}
		if budget == 0 {
			return
		}
	}
}

// tryRetire performs the second commit level: when the architectural
// threadlet has finished its epoch (committed through its reattach, drained
// its stores, and let in-flight conflict checks settle), it retires and its
// successor becomes architectural, merging its SSB slice into the memory
// system atomically (§4.1.4).
func (m *Machine) tryRetire() {
	t := m.threads[m.archTid()]
	if !t.hasEpochEnd || t.rob.len() > 0 || t.drain.len() > 0 {
		return
	}
	if t.retireAt == 0 {
		t.retireAt = m.now + m.cd.CheckLatency
		return
	}
	if m.now < t.retireAt {
		return
	}
	if len(m.order) < 2 {
		// A detached threadlet always has a live successor; defensively wait.
		return
	}
	m.ssb.Merge(t.id) // normally empty: architectural stores went direct
	m.clearSSBTaint(t.id)
	m.cd.Clear(t.id)
	if t.activeRegion >= 0 {
		m.mon.OnCommit(t.activeRegion)
		m.mon.OnEpochRetired(t.activeRegion, t.epochCommitted)
	}
	m.stats.Retires++
	m.ledger(t.activeRegion).Retires++
	m.pack.OnEpochRetired(t.activeRegion, t.epochCommitted, t.epochFactor)
	m.emitEvent(EvRetire, t.id, t.activeRegion, int(t.epochCommitted))
	t.live = false
	if m.contextFreeAt[t.id] < m.now {
		m.contextFreeAt[t.id] = m.now
	}
	m.order = m.order[1:]

	// Promote the successor: its buffered state becomes architectural at
	// once (the S_arch increment), then drains in the background.
	b := m.threads[m.archTid()]
	if m.spectreLive {
		// Promotion closes the epoch-speculation window: its candidates were
		// correct-path and its resolved values are architectural now.
		m.promoteSpectre(b)
		m.clearSSBTaint(b.id)
	}
	merged := m.ssb.Merge(b.id)
	flushDone := m.now + int64(merged)*m.ssb.Config().FlushCyclesPerLine
	if flushDone > m.contextFreeAt[b.id] {
		m.contextFreeAt[b.id] = flushDone
	}
	m.stats.ArchInsts += b.specCommitted
	m.stats.SpecCommitCycleSum += b.specCommitted
	m.stats.RegionArchInsts += b.specCommittedRegion
	// The promoted successor is always a spawned context: homeRegion is
	// real even when a sync loop exit already cleared its active region.
	lg := m.ledger(b.homeRegion)
	lg.Promotes++
	lg.SpecWon += b.specCommitted
	b.specCommitted = 0
	b.specCommittedRegion = 0
	b.overflowStalled = false
	// A deferred speculative drain fault survives promotion: clearing the
	// stall lets the architectural drain path re-validate and raise MemFault.
	b.drainFaulted = false
	if b.memFault != nil {
		// A faulted load this threadlet committed speculatively just became
		// architectural: the program faults here.
		m.memFault = b.memFault
		b.memFault = nil
	}
	m.lastArchCommit = m.now
	// Watchdog bookkeeping: the successor chain made real progress, so the
	// stuck-epoch clock and the squash-livelock streak both reset.
	m.specSince = m.now
	m.lastRestartPC = -1
	m.restartStreak = 0
	m.emitEvent(EvPromote, b.id, b.homeRegion, 0)
}
