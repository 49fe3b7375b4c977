package cpu

import (
	"fmt"

	"loopfrog/internal/core"
	"loopfrog/internal/isa"
)

// rollbackTo squashes all uncommitted instructions of threadlet t with
// seq >= fromSeq (an intra-threadlet recovery: branch misprediction or LSQ
// order violation) and redirects fetch to target. resolvedBranch, when
// non-nil, is the branch whose resolution triggered the rollback; its
// corrected history was already installed by the caller.
func (m *Machine) rollbackTo(t *threadlet, fromSeq uint64, target int, resolvedBranch *dynInst) {
	rob := t.rob.items()
	cut := seqIndex(rob, fromSeq)
	var oldestHist uint64
	haveHist := false
	for i := len(rob) - 1; i >= cut; i-- {
		e := rob[i]
		e.squashed = true
		if m.spectreLive {
			m.squashSpectre(e)
		}
		if e.hasDest {
			t.renameMap[e.destReg] = e.oldMap
			if e.destReg.IsFP() {
				m.fpRegsUsed--
			} else {
				m.intRegsUsed--
			}
		}
		if e.state == stDispatched || e.state == stReady {
			m.iqUsed--
			t.iqHeld--
		}
		if e.meta.IsLoad {
			m.lqUsed--
		}
		if e.meta.IsStore {
			m.sqUsed--
		}
		m.robUsed--
		t.robHeld--
		if e.spawnedTid >= 0 {
			// The detach that spawned was wrong-path: drop its successors.
			m.squashFrom(int(e.spawnedTid), core.SquashWrongPath, false)
		}
		if e.meta.IsHint {
			// Restore the epoch state the hint mutated at dispatch.
			t.activeRegion = e.prevRegion
			t.detached = e.prevDetached
			t.skipReattach = e.prevSkip
			t.pendingVerify = e.prevVerify
		}
		if e.endsEpoch {
			t.hasEpochEnd = false
			t.fetchHalted = false
		}
		if e.inst.Op == isa.HALT {
			t.haltSeen = false
			t.fetchHalted = false
		}
		if e.hasPred {
			oldestHist = e.pred.Hist
			haveHist = true
		}
		e.release()
		m.freeSquashed(e)
	}
	t.rob.truncate(cut)
	if m.spectreLive {
		t.ctlSquashed(fromSeq)
	}
	if resolvedBranch != nil {
		resolvedBranch.mispredicted = true
	} else if haveHist {
		// Non-branch trigger (LSQ replay): restore the history snapshot of
		// the oldest squashed branch.
		m.bp.SetHistory(t.id, oldestHist)
	}
	m.redirectFetch(t, target)
	m.fixYoungest()
}

// freeSquashed frees a squashed instruction unless a scheduler queue still
// holds it. An in-flight instruction sits in at most one queue, known from
// its state: the ready queue when stReady, the executing list or replay
// queue when stExecuting, the delayed-wake list when stDone with its wakeup
// held. The site that drops a squashed entry from that queue frees it.
func (m *Machine) freeSquashed(e *dynInst) {
	if e.state == stDispatched || e.state == stDone && !e.wakeHeld {
		m.freeInst(e)
	}
}

// fixYoungest restores the invariant that only a threadlet with a live
// successor is marked detached. It can be violated when a wrong-path sync
// squashes the successors and the sync is then rolled back: the restored
// "detached" state refers to threadlets that no longer exist. Clearing it
// makes the threadlet fall through its reattach and re-execute the work
// sequentially — always safe.
func (m *Machine) fixYoungest() {
	if len(m.order) == 0 {
		return
	}
	t := m.threads[m.order[len(m.order)-1]]
	if !t.detached {
		return
	}
	t.detached = false
	t.skipReattach = 0
	t.pendingVerify = false
	if t.hasEpochEnd {
		// Already halted at its reattach: resume sequentially right after it.
		t.hasEpochEnd = false
		t.retireAt = 0
		m.redirectFetch(t, t.epochEndPC+1)
	}
}

// squashSuccessors drops every live threadlet younger than t (a sync loop
// exit: the speculation was down a path the program did not take). Returns
// the number of threadlets squashed.
func (m *Machine) squashSuccessors(t *threadlet, cause core.SquashCause) int {
	idx := m.orderIdx(t.id)
	if idx < 0 || idx+1 >= len(m.order) {
		return 0
	}
	victim := m.order[idx+1]
	n := len(m.order) - idx - 1
	m.squashFrom(victim, cause, false)
	return n
}

// squashFrom squashes threadlet victimTid and everything younger (§4:
// "Squash and restart t, recycle t+1, t+2, ..."). When restart is true the
// victim restarts its epoch from its checkpoint; otherwise it is recycled
// along with its successors.
func (m *Machine) squashFrom(victimTid int, cause core.SquashCause, restart bool) {
	idx := m.orderIdx(victimTid)
	if idx < 0 {
		return
	}
	if idx == 0 {
		panic(fmt.Sprintf("cpu: attempt to squash architectural threadlet %d (%s)", victimTid, cause))
	}
	victims := append([]int(nil), m.order[idx:]...)
	for i := len(victims) - 1; i >= 0; i-- {
		tid := victims[i]
		v := m.threads[tid]
		m.purgeThreadlet(v)
		m.ssb.Squash(tid)
		m.clearSSBTaint(tid)
		m.cd.Clear(tid)
		m.stats.SpecCommitted += v.epochCommitted
		m.stats.Squashes[cause]++
		// Victims are always spawned contexts, so homeRegion is a real
		// region even when a speculative sync exit cleared activeRegion.
		lg := m.ledger(v.homeRegion)
		lg.Squashes[cause]++
		lg.SpecLost += v.epochCommitted
		if i == 0 && restart {
			lg.Restarts++
		}
		if v.activeRegion >= 0 {
			m.mon.OnSquash(v.activeRegion, cause)
		}
		if i == 0 && restart {
			m.restartThreadlet(v)
			m.noteRestart(v.epochStartPC)
			m.emitEvent(EvRestart, tid, v.homeRegion, int(cause))
		} else {
			v.live = false
			if m.contextFreeAt[tid] < m.now {
				m.contextFreeAt[tid] = m.now
			}
			if cause == core.SquashSync {
				m.emitEvent(EvSyncCancel, tid, v.homeRegion, int(cause))
			} else {
				m.emitEvent(EvSquash, tid, v.homeRegion, int(cause))
			}
		}
	}
	m.order = m.order[:idx]
	if restart {
		m.order = append(m.order, victimTid)
	}
	// Commit slots lost while the front end refills after the squash are
	// attributed to squash-drain (stall.go).
	if until := m.now + int64(m.cfg.FrontendDepth); until > m.recoverUntil {
		m.recoverUntil = until
	}
	m.fixYoungest()
}

// purgeThreadlet removes all of a threadlet's in-flight state from the
// shared structures.
func (m *Machine) purgeThreadlet(t *threadlet) {
	for _, e := range t.rob.items() {
		e.squashed = true
		if m.spectreLive {
			m.squashSpectre(e)
		}
		m.robUsed--
		t.robHeld--
		if e.hasDest {
			if e.destReg.IsFP() {
				m.fpRegsUsed--
			} else {
				m.intRegsUsed--
			}
		}
		if e.state == stDispatched || e.state == stReady {
			m.iqUsed--
			t.iqHeld--
		}
		if e.meta.IsLoad {
			m.lqUsed--
		}
		if e.meta.IsStore {
			m.sqUsed--
		}
		e.release()
		m.freeSquashed(e)
	}
	t.rob.truncate(0)
	// Committed-but-undrained stores still hold SQ entries.
	m.sqUsed -= t.drain.len()
	for _, s := range t.drain.items() {
		m.freeInst(s)
	}
	t.drain.truncate(0)
	t.fq.truncate(0)
	if m.spectreLive {
		// The whole epoch was misspeculation: candidates it committed are
		// confirmed leaks, and its transient windows are gone.
		for _, pl := range t.pendingLeaks {
			m.confirmLeak(pl.pc, pl.region)
		}
		t.pendingLeaks = t.pendingLeaks[:0]
		t.ctlInFlight = t.ctlInFlight[:0]
	}
}

// restartThreadlet re-launches a squashed threadlet's epoch from its
// checkpoint (§4: "we load the checkpoint back in and restart it").
func (m *Machine) restartThreadlet(t *threadlet) {
	t.fetchPC = t.epochStartPC
	t.fetchHalted = false
	t.haltSeen = false
	t.fetchReadyAt = m.now + m.cfg.SpawnLatency
	t.lineValid = false
	t.hasEpochEnd = false
	t.detached = false
	t.skipReattach = 0
	t.pendingVerify = false
	t.epochCommitted = 0
	t.specCommitted = 0
	t.specCommittedRegion = 0
	t.retireAt = 0
	t.overflowStalled = false
	t.drainFaulted = false
	t.memFault = nil
	t.writtenMask = [isa.NumRegs]bool{}
	t.writtenThisIter = [isa.NumRegs]bool{}
	t.consumedStart = [isa.NumRegs]bool{}
	t.committedRegs = t.ckptRegs
	for r := 0; r < isa.NumRegs; r++ {
		if p := t.ckptPending[r]; p != nil {
			if p.state >= stDone && !p.wakeHeld {
				// The future resolved while we were squashing.
				t.ckptPending[r] = nil
				t.ckptRegs[r] = p.result
				t.ckptTaint[r] = p.taint
				t.committedRegs[r] = p.result
				t.renameMap[r] = mapEntry{val: p.result, taint: p.taint}
				continue
			}
			t.renameMap[r] = mapEntry{prod: p, gen: p.gen}
			continue
		}
		t.renameMap[r] = mapEntry{val: t.ckptRegs[r], taint: t.ckptTaint[r]}
	}
	m.bp.SetHistory(t.id, t.ckptGHR)
}
