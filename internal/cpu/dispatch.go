package cpu

import (
	"loopfrog/internal/core"
	"loopfrog/internal/isa"
)

// dispatch renames and dispatches up to Width instructions per cycle from
// the per-threadlet fetch queues into the shared back end. Older threadlets
// have allocation priority (§4): when the oldest runnable threadlet blocks
// on a shared structural resource, younger threadlets may not steal it.
func (m *Machine) dispatch() {
	budget := m.cfg.Width
	snapshot := m.dispatchSnap[:copy(m.dispatchSnap, m.order)]
	for _, tid := range snapshot {
		if budget == 0 {
			return
		}
		t := m.threads[tid]
		if !t.live || m.orderIdx(tid) < 0 {
			continue // squashed by an older threadlet's hint this cycle
		}
		for budget > 0 && t.fq.len() > 0 && t.live {
			fe := t.fq.front()
			if fe.readyAt > m.now {
				break // still in the front-end pipe
			}
			if m.delayDetachForPacking(t, fe) {
				break
			}
			ok, shared := m.dispatchOne(t, fe)
			if !ok {
				if shared {
					return // structural stall: block younger threadlets too
				}
				break
			}
			// A reattach epoch-end clears the fetch queue from inside
			// dispatchOne; only pop when entries remain.
			if t.fq.len() > 0 {
				t.fq.pop()
			}
			budget--
		}
	}
}

// dispatchOne renames one instruction. It returns ok=false when the
// instruction cannot dispatch this cycle; shared=true marks a shared
// structural resource as the cause. fe points into t's fetch queue, which a
// reattach hint empties, so it is read only before the hint takes effect.
func (m *Machine) dispatchOne(t *threadlet, fe *fetchEntry) (ok, shared bool) {
	d := &m.code[fe.pc]
	inst, meta := &d.Inst, d.Meta
	if m.robUsed >= m.cfg.ROBSize {
		return false, true
	}
	if live := len(m.order); live > 1 {
		// Cap each threadlet's share of the shared windows so one epoch's
		// long dependency chain cannot starve the others.
		if sh := m.shares[live]; t.robHeld >= sh.rob || t.iqHeld >= sh.iq {
			return false, false
		}
	}
	needsIQ := meta.Class != isa.ClassNop
	if needsIQ && m.iqUsed >= m.cfg.IQSize {
		return false, true
	}
	if meta.IsLoad && m.lqUsed >= m.cfg.LQSize {
		return false, true
	}
	if meta.IsStore && m.sqUsed >= m.cfg.SQSize {
		return false, true
	}
	hasDest := meta.HasRd && inst.Rd != isa.X0
	if hasDest {
		if inst.Rd.IsFP() {
			if m.fpRegsUsed >= m.cfg.FPRegs-isa.NumRegs {
				return false, true
			}
		} else if m.intRegsUsed >= m.cfg.IntRegs-isa.NumRegs {
			return false, true
		}
	}

	// newInst clears only the tail: every head field is written here.
	e := m.newInst()
	e.tid = t.id
	e.epoch = t.epoch
	e.seq = t.seqCounter
	e.pc = fe.pc
	e.inst = *inst
	e.pred = fe.pred
	e.predTarget = fe.predTgt
	e.memSize = int32(meta.MemBytes)
	e.spawnedTid = -1
	e.srcReady[0], e.srcReady[1] = true, true
	e.hasDest = hasDest
	e.destReg = inst.Rd
	e.hasPred = fe.hasPred
	e.predTaken = fe.predTaken
	t.seqCounter++
	if m.spectreLive && (meta.IsBranch || inst.Op == isa.JALR) {
		t.ctlDispatched(e.seq)
	}

	if meta.HasRs1 {
		e.srcReady[0] = false
		m.capture(t, e, 0, inst.Rs1)
	}
	if meta.HasRs2 {
		e.srcReady[1] = false
		m.capture(t, e, 1, inst.Rs2)
	}

	if hasDest {
		e.oldMap = t.renameMap[e.destReg]
		t.renameMap[e.destReg] = mapEntry{prod: e.self, gen: e.gen}
		if e.destReg.IsFP() {
			m.fpRegsUsed++
		} else {
			m.intRegsUsed++
		}
	}

	m.robUsed++
	t.robHeld++
	t.rob.push(e.self)
	if needsIQ {
		m.iqUsed++
		t.iqHeld++
	}
	if meta.IsLoad {
		m.lqUsed++
		t.ldIdx.push(memRec{seq: e.seq, e: e.self, size: int32(meta.MemBytes)})
	}
	if meta.IsStore {
		m.sqUsed++
		t.stIdx.push(memRec{seq: e.seq, e: e.self, size: int32(meta.MemBytes)})
	}

	switch {
	case meta.IsHint:
		m.handleHint(t, e)
		e.state = stDone
		e.readyAt = m.now
	case meta.Class == isa.ClassNop: // NOP, HALT
		e.state = stDone
		e.readyAt = m.now
	default:
		e.state = stDispatched
		if e.srcReady[0] && e.srcReady[1] {
			m.enqueueReady(e)
		}
	}
	// Epoch membership is decided here, after hint effects: a spawning detach
	// opens the region for itself and younger instructions only.
	e.dispRegion = t.activeRegion
	return true, false
}

// capture reads operand slot of e, register r, through t's rename map: a
// value is taken at once, a pending producer records e as its waiter.
func (m *Machine) capture(t *threadlet, e *dynInst, slot int, r isa.Reg) {
	if r == isa.X0 && !r.IsFP() {
		e.srcReady[slot] = true
		return
	}
	me := t.renameMap[r]
	if me.prod == 0 {
		e.srcReady[slot] = true
		e.srcVal[slot] = me.val
		e.srcTaint[slot] = me.taint
		if t.startConsumable(r) {
			t.consumedStart[r] = true
		}
		return
	}
	p := m.at(me.prod)
	if p.gen != me.gen {
		// The producer committed and its slot was reused: the value is the
		// threadlet's committed one (mapEntry).
		e.srcReady[slot] = true
		e.srcVal[slot] = t.committedRegs[r]
		e.srcTaint[slot] = t.committedTaint[r]
		return
	}
	if p.state >= stDone && !p.wakeHeld {
		e.srcReady[slot] = true
		e.srcVal[slot] = p.result
		e.srcTaint[slot] = p.taint
		return
	}
	e.srcProd[slot] = p.self
	m.addWaiter(p, e.self)
}

// addWaiter records w as a consumer of p's result: inline while p has room,
// else on a node of the machine's waiter list.
func (m *Machine) addWaiter(p *dynInst, w instRef) {
	if p.nWait < waitBufLen {
		p.waitBuf[p.nWait] = w
		p.nWait++
		return
	}
	n := m.waitFree
	if n != 0 {
		m.waitFree = m.waitNodes[n].next
		m.waitNodes[n] = waitNode{w: w}
	} else {
		n = uint32(len(m.waitNodes))
		m.waitNodes = append(m.waitNodes, waitNode{w: w})
	}
	if p.waitTail == 0 {
		p.waitHead = n
	} else {
		m.waitNodes[p.waitTail].next = n
	}
	p.waitTail = n
}

// dropWaiters empties p's waiter list, returning its nodes to the free list.
func (m *Machine) dropWaiters(p *dynInst) {
	if p.waitTail != 0 {
		m.waitNodes[p.waitTail].next = m.waitFree
		m.waitFree = p.waitHead
		p.waitHead, p.waitTail = 0, 0
	}
	p.nWait = 0
}

// addCkptWait records that p's result fills register reg of threadlet tid's
// checkpoint, made at the threadlet's generation tgen.
func (m *Machine) addCkptWait(p *dynInst, tid int, reg isa.Reg, tgen uint64) {
	m.ckptWaits.push(ckptWait{prod: p.self, tid: int32(tid), reg: reg, tgen: tgen})
	p.ckptWaited = true
}

// takeCkptWaits removes p's checkpoint slots from m.ckptWaits, filling each
// (fillCkpt) in the order they were added when fill is set.
func (m *Machine) takeCkptWaits(p *dynInst, fill bool) {
	p.ckptWaited = false
	kept := 0
	for _, cw := range m.ckptWaits.items() {
		switch {
		case cw.prod != p.self:
			m.ckptWaits.buf[kept] = cw
			kept++
		case fill:
			m.fillCkpt(p, cw)
		}
	}
	m.ckptWaits.truncate(kept)
}

// release empties e's links to other instructions. It runs when e leaves
// the window (commit, rollback, purge): a squashed waiter then no longer
// names its producer, so wake skips it, and a free slot holds no live link
// (DESIGN.md, "Instruction lifetime").
func (m *Machine) release(e *dynInst) {
	e.srcProd = [2]instRef{}
	e.oldMap.prod = 0
	m.dropWaiters(e)
}

// newInst returns a dynInst for dispatch to fill: the most recently freed
// one, with its generation bumped and its tail cleared, or else a fresh slot
// appended to m.slots, zero apart from its handle. Either way the tail is
// zero and the links are empty (dynInst). The append may move the slots,
// and with them every *dynInst taken before it. That is safe because
// newInst has one caller, dispatchOne, and neither it nor its caller holds
// another *dynInst across the call.
func (m *Machine) newInst() *dynInst {
	if n := m.instFree.len(); n > 0 {
		e := m.at(m.instFree.buf[n-1])
		m.instFree.truncate(n - 1)
		e.gen++
		e.instTail = instTail{}
		return e
	}
	m.slots = append(m.slots, dynInst{self: instRef(len(m.slots) + 1)})
	return &m.slots[len(m.slots)-1]
}

// freeInst returns an instruction nothing can read any more to the free list
// (DESIGN.md, "Instruction lifetime"). Rename entries and waiter lists may
// still name it; the generation tag and wake's srcProd test make those
// entries inert once it is reused. A producer squashed before it completed
// takes its checkpoint slots with it: they were younger threadlets', which
// the squash took too.
func (m *Machine) freeInst(e *dynInst) {
	if e.ckptWaited {
		m.takeCkptWaits(e, false)
	}
	m.instFree.push(e.self)
}

// at returns the instruction h names; h must not be 0.
func (m *Machine) at(h instRef) *dynInst { return &m.slots[h-1] }

// startConsumable reports whether register r still carries the threadlet's
// inherited starting value (for the packing repair decision, §4.3).
func (t *threadlet) startConsumable(r isa.Reg) bool {
	return !t.regWritten(r)
}

func (t *threadlet) regWritten(r isa.Reg) bool { return t.writtenMask[r] }

// handleHint implements the dispatch-time semantics of §3.1: detach may fork
// a threadlet, reattach ends the epoch of a detached threadlet, and sync
// cancels the speculative successors on a loop exit. A threadlet detached on
// region C ignores all hints except reattach C and sync C.
func (m *Machine) handleHint(t *threadlet, e *dynInst) {
	region := e.inst.Imm
	e.prevRegion = t.activeRegion
	e.prevDetached = t.detached
	e.prevSkip = int32(t.skipReattach)
	e.prevVerify = t.pendingVerify
	switch e.inst.Op {
	case isa.DETACH:
		m.stats.Detaches++
		m.ledger(region).Detaches++
		if t.activeRegion >= 0 && t.activeRegion != region {
			m.stats.HintNops++ // inner region while detached on another
			return
		}
		if t.detached {
			// Already has a successor. With packing, the first detach seen
			// with no skips left is the verification point (§4.3).
			if t.pendingVerify && t.skipReattach == 0 {
				e.endsEpoch = false
				e.spawnedTid = -1
				e.verifyPoint()
			} else {
				m.stats.HintNops++
			}
			return
		}
		m.trySpawn(t, e, region)
	case isa.REATTACH:
		if t.activeRegion == region && t.detached {
			if t.skipReattach > 0 {
				t.skipReattach--
				return
			}
			// Epoch ends here: the threadlet has caught up to its
			// successor's starting point and halts (§3.1).
			e.endsEpoch = true
			t.hasEpochEnd = true
			t.epochEndSeq = e.seq
			t.epochEndPC = e.pc
			t.fetchHalted = true
			t.fq.reset()
			return
		}
		m.stats.HintNops++
	case isa.SYNC:
		if t.activeRegion == region {
			// The loop exited: all successors were misspeculation (§3.1).
			if n := m.squashSuccessors(t, core.SquashSync); n > 0 {
				m.stats.SyncCancels += uint64(n)
			}
			t.activeRegion = -1
			t.detached = false
			t.skipReattach = 0
			t.pendingVerify = false
			return
		}
		m.stats.HintNops++
	}
}

// verifyPoint marks a detach as the packing verification point; the check
// itself runs at the instruction's threadlet commit, when the actual
// register values are architectural for the threadlet.
func (e *dynInst) verifyPoint() { e.endsEpoch = false; e.isVerifyPoint = true }

// maxDetachWait bounds how long a pack-candidate detach may stall in the
// front end waiting for its induction variables to resolve.
const maxDetachWait = 8

// delayDetachForPacking reports whether the detach at the head of t's fetch
// queue should wait a little for its IV values (§4.3's value predictor needs
// concrete inputs). Without the wait, tight loops dispatch the detach in the
// same cycle as the IV update and packing could never engage.
func (m *Machine) delayDetachForPacking(t *threadlet, fe *fetchEntry) bool {
	inst := &m.code[fe.pc].Inst
	if inst.Op != isa.DETACH || !m.cfg.Pack.Enabled || m.cfg.Threadlets <= 1 {
		return false
	}
	region := inst.Imm
	if t.detached || (t.activeRegion >= 0 && t.activeRegion != region) || m.mon.Disabled(region) {
		return false
	}
	ivs := m.pack.IVs(region)
	if len(ivs) == 0 {
		return false
	}
	free := false
	for i, ct := range m.threads {
		if !ct.live && m.contextFreeAt[i] <= m.now {
			free = true
			break
		}
	}
	if !free {
		return false
	}
	_, resolved := m.regSnapshot(t)
	for _, iv := range ivs {
		if !resolved[iv] {
			if t.detachWait < maxDetachWait {
				t.detachWait++
				return true
			}
			return false // waited long enough; spawn unpacked
		}
	}
	return false
}

// trySpawn attempts to fork a successor threadlet at a detach (§3.1, §4.3).
func (m *Machine) trySpawn(t *threadlet, e *dynInst, region int64) {
	if m.cfg.Threadlets <= 1 {
		m.stats.HintNops++
		return
	}
	free := -1
	for i, ct := range m.threads {
		if !ct.live && m.contextFreeAt[i] <= m.now {
			free = i
			break
		}
	}
	if free < 0 {
		m.stats.DetachNoContext++
		m.ledger(region).DetachNoContext++
		return
	}
	if !m.mon.Allow(region) {
		m.stats.HintNops++
		return
	}

	// Iteration packing decision (§4.3): train the stride predictor with
	// this spawn point (spawns occur in epoch order), then pack only when
	// every IV register's value is already resolved at the detach, so the
	// successor can start from concrete predicted values.
	factor := 1
	var predicted [isa.NumRegs]uint64
	snapshot, resolved := m.regSnapshot(t)
	if m.cfg.Pack.Enabled {
		allConcrete := true
		for _, iv := range m.pack.IVs(region) {
			if !resolved[iv] {
				allConcrete = false
				break
			}
		}
		if allConcrete {
			m.pack.TrainStride(region, &snapshot, &resolved)
			factor, predicted = m.pack.Decide(region, &snapshot)
			if factor > 1 && m.inj != nil {
				for _, iv := range m.pack.IVs(region) {
					if v, ok := m.inj.PoisonPack(m.now, int(iv), predicted[iv]); ok {
						predicted[iv] = v
					}
				}
			}
		}
	}
	t.detachWait = 0

	nt := m.threads[free]
	m.spawnInto(t, nt, int(region), factor, &predicted)
	t.activeRegion = region
	t.detached = true
	t.skipReattach = factor - 1
	t.pendingVerify = factor > 1
	t.epochFactor = factor // parent now covers `factor` iterations
	if factor > 1 {
		t.predictedStart = predicted
		m.stats.PackedSpawns++
	}
	e.spawnedTid = int32(nt.id)
	m.stats.Spawns++
	lg := m.ledger(region)
	lg.Spawns++
	if factor > 1 {
		lg.PackedSpawns++
	}
	m.emitEvent(EvSpawn, nt.id, region, factor)
}

// regSnapshot returns t's current speculative register values where
// resolved, with a mask of which registers are concrete.
func (m *Machine) regSnapshot(t *threadlet) (vals [isa.NumRegs]uint64, resolved [isa.NumRegs]bool) {
	for r := 0; r < isa.NumRegs; r++ {
		me := t.renameMap[r]
		if me.prod == 0 {
			vals[r], resolved[r] = me.val, true
			continue
		}
		switch p := m.at(me.prod); {
		case p.gen != me.gen:
			vals[r], resolved[r] = t.committedRegs[r], true
		case p.state >= stDone && !p.wakeHeld:
			vals[r], resolved[r] = p.result, true
		}
	}
	return vals, resolved
}

// spawnInto initialises a fresh threadlet context as the successor epoch of
// parent, starting at the region's continuation address. The successor
// inherits the parent's register state at the detach — resolved values
// directly, unresolved ones as dataflow futures — exactly the rename-map
// copy of §4.
func (m *Machine) spawnInto(parent, nt *threadlet, contPC int, factor int, predicted *[isa.NumRegs]uint64) {
	m.gens[nt.id]++
	m.epochs++
	// The context's queues are empty (it retired or was purged).
	nt.reset(nt.id)
	nt.live = true
	nt.epoch = m.epochs
	nt.fetchPC = contPC
	nt.fetchReadyAt = m.now + m.cfg.SpawnLatency
	nt.activeRegion = int64(contPC)
	nt.homeRegion = int64(contPC)
	nt.epochStartPC = contPC
	nt.spawnedAt = m.now
	nt.ckptGHR = m.bp.History(parent.id)
	// IV overrides for packed spawns.
	overridden := [isa.NumRegs]bool{}
	if factor > 1 {
		for _, iv := range m.pack.IVs(int64(contPC)) {
			overridden[iv] = true
		}
	}
	for r := 0; r < isa.NumRegs; r++ {
		if overridden[r] {
			nt.renameMap[r] = mapEntry{val: predicted[r]}
			nt.ckptRegs[r] = predicted[r]
			nt.committedRegs[r] = predicted[r]
			if parent.startConsumable(isa.Reg(r)) {
				// The predicted value is a function (via the stride
				// predictor's snapshot) of the parent's current register
				// value: the start value escaped into the successor's
				// prediction, so it counts as consumed (see below).
				parent.consumedStart[r] = true
			}
			continue
		}
		me := parent.renameMap[r]
		if me.prod != 0 {
			switch p := m.at(me.prod); {
			case p.gen != me.gen:
				me = mapEntry{val: parent.committedRegs[r], taint: parent.committedTaint[r]}
			case p.state >= stDone && !p.wakeHeld:
				me = mapEntry{val: p.result, taint: p.taint}
			}
		}
		nt.renameMap[r] = me
		if me.prod == 0 {
			nt.ckptRegs[r] = me.val
			nt.ckptTaint[r] = me.taint
			nt.committedRegs[r] = me.val
			nt.committedTaint[r] = me.taint
			if parent.startConsumable(isa.Reg(r)) {
				// Handing an inherited start value on to a successor is a
				// consumption: if the §4.3 verification later finds this
				// register mispredicted, a silent repair of this threadlet
				// could no longer reach the copy the successor took, so
				// packVerify must squash instead (the repair-escape hazard).
				parent.consumedStart[r] = true
			}
		} else {
			nt.ckptPending[r] = me.prod
			m.addCkptWait(m.at(me.prod), nt.id, isa.Reg(r), m.gens[nt.id])
		}
	}
	m.bp.SetHistory(nt.id, nt.ckptGHR)
	m.bp.CopyRAS(nt.id, parent.id)
	if len(m.order) == 1 {
		// The architectural epoch just acquired its first speculative
		// successor: start the watchdog's stuck-epoch clock (watchdog.go).
		m.specSince = m.now
	}
	m.order = append(m.order, nt.id)
}
