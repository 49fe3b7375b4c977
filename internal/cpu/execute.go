package cpu

import (
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
)

// enqueueReady moves an instruction whose operands are all available into
// its class's ready queue. A ready queue is kept oldest first (olderThan) by
// insertion: most arrivals are the youngest, and go to the back.
func (m *Machine) enqueueReady(e *dynInst) {
	if e.state != stDispatched {
		return
	}
	e.state = stReady
	q := append(m.readyQ[e.meta.Class], e)
	i := len(q) - 1
	for ; i > 0 && e.olderThan(q[i-1]); i-- {
		q[i] = q[i-1]
	}
	q[i] = e
	m.readyQ[e.meta.Class] = q
}

// olderThan reports whether e comes before o in age order: by epoch order,
// then by age within a threadlet. The order of two instructions never
// changes while they are in flight.
func (e *dynInst) olderThan(o *dynInst) bool {
	return e.epoch < o.epoch || e.epoch == o.epoch && e.seq < o.seq
}

// unitsFor returns the per-cycle issue bandwidth of a class (Table 1 pipes).
func (m *Machine) unitsFor(c isa.Class) int {
	switch c {
	case isa.ClassIntALU:
		return m.cfg.ALUs
	case isa.ClassBranch:
		return m.cfg.Branches
	case isa.ClassMulDiv:
		return m.cfg.MulDivs
	case isa.ClassFP:
		return m.cfg.FPs
	case isa.ClassFPDiv:
		return m.cfg.FPDivs
	case isa.ClassLoad:
		return m.cfg.LoadPipes
	case isa.ClassStore:
		return m.cfg.StorePipes
	}
	return 0
}

// issue selects ready instructions, oldest epoch first (older threadlets
// have priority, §4), and begins execution.
//
// Known fault, left in place because mending it moves the cycles of
// programs whose results perfbench pins (calculix): a class's live list is
// built before any of its instructions executes. A store whose execStore
// rolls its threadlet back leaves the younger stores it squashed in live,
// and execOne still runs them. rollbackTo already gave back their IQ
// entries, so execOne takes iqUsed and iqHeld down a second time: iqUsed
// ends up below the true occupancy, negative at times, and the IQ can then
// hold more than IQSize.
func (m *Machine) issue() {
	// Replayed loads retry ahead of fresh issues on the load pipes.
	loadBudget := m.cfg.LoadPipes
	if len(m.replayQ) > 0 {
		q := m.replayQ
		m.replayQ = m.replayQ[:0]
		for _, e := range q {
			if e.squashed {
				m.freeInst(e)
				continue
			}
			if loadBudget == 0 {
				m.replayQ = append(m.replayQ, e)
				continue
			}
			if m.execLoad(e) {
				loadBudget--
			}
		}
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		q := m.readyQ[c]
		if len(q) == 0 {
			continue
		}
		units := m.unitsFor(c)
		if c == isa.ClassLoad {
			units = loadBudget
		}
		// The queue is in age order, so older epochs issue first: the
		// oldest units ready entries issue, picked before any executes.
		// Squashed entries met on the way are dropped; those further back
		// wait until they reach the front.
		live := q[:0]
		k := 0
		for ; k < len(q) && len(live) < units; k++ {
			if e := q[k]; e.squashed {
				m.freeInst(e)
			} else if e.state == stReady {
				live = append(live, e)
			}
		}
		for _, e := range live {
			m.execOne(e)
		}
		m.readyQ[c] = append(q[:0], q[k:]...)
	}
}

// sortByAge orders instructions oldest first (olderThan). It is a stable
// insertion sort, since the lists it sorts are short and mostly in order
// already, and allocates nothing.
func sortByAge(q []*dynInst) {
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i
		for ; j > 0 && e.olderThan(q[j-1]); j-- {
			q[j] = q[j-1]
		}
		q[j] = e
	}
}

// execOne starts execution of one instruction. A load the memory system
// cannot take yet goes to the replay queue; its pipe slot is spent all the
// same.
func (m *Machine) execOne(e *dynInst) {
	e.state = stExecuting
	m.iqUsed--
	m.threads[e.tid].iqHeld--
	switch {
	case e.meta.IsLoad:
		m.execLoad(e)
	case e.meta.IsStore:
		m.execStore(e)
	case e.meta.IsBranch:
		e.result = 0
		e.readyAt = m.now + 1
		m.executing = append(m.executing, e)
	case e.inst.Op == isa.JAL || e.inst.Op == isa.JALR:
		e.result = uint64(e.pc + 1)
		e.readyAt = m.now + 1
		m.executing = append(m.executing, e)
	default:
		e.result = isa.EvalALU(e.inst, e.srcVal[0], e.srcVal[1])
		e.taint = e.srcTaint[0] || e.srcTaint[1]
		e.readyAt = m.now + int64(e.meta.Latency)
		m.executing = append(m.executing, e)
	}
}

// execLoad performs address generation, intra-threadlet disambiguation, and
// the versioned memory read (§4.1.3). It returns false when the load was
// deferred to the replay queue.
func (m *Machine) execLoad(e *dynInst) bool {
	t := m.threads[e.tid]
	e.addr = e.srcVal[0] + uint64(e.inst.Imm)
	e.addrValid = true
	rec := recOf(&t.ldIdx, e)
	if rec != nil {
		rec.addr, rec.valid = e.addr, true
	}
	m.stats.Loads++
	if m.spectreLive {
		e.transient = m.transientAt(t, e.seq)
	}

	// Search the youngest older store in this threadlet with an overlapping
	// address: first the in-ROB store queue, then the post-commit drain
	// queue.
	if st, partial := m.findOlderStore(t, e); st != nil {
		if partial || !st.srcReady[1] {
			// Partial overlap or data not ready: wait and retry.
			m.replayQ = append(m.replayQ, e)
			return false
		}
		// Store-to-load forwarding within the threadlet.
		shift := (e.addr - st.addr) * 8
		raw := st.srcVal[1] >> shift
		e.result = isa.ExtendLoad(e.inst.Op, raw)
		// A forwarded value is tainted if the store's data was, or if the
		// load itself is transient. No cache access, so never a candidate.
		e.taint = e.transient || st.srcTaint[1]
		e.loadFwdSQ = true
		if rec != nil {
			rec.fwdSeq = st.seq
		}
		e.readyAt = m.now + 1
		m.executing = append(m.executing, e)
		return true
	}

	// An invalid (unaligned) load address never reaches the memory system:
	// the load completes with a zero result and raises a MemFault at commit
	// if it turns out to be on the committed path (commit.go). Wrong-path
	// loads routinely compute garbage addresses; they must not crash the run.
	if mem.ValidateAccess(e.addr, e.memSize) != nil {
		e.memFaulted = true
		e.result = 0
		e.readyAt = m.now + 1
		m.executing = append(m.executing, e)
		return true
	}

	// The gadget's second access: a transient load steering the hierarchy
	// with a taint-derived address. Recorded once, at the first probe — an
	// MSHR retry of the same access is the same leak.
	if e.transient && e.srcTaint[0] && !e.leakCand {
		m.noteLeakCandidate(e)
	}

	// Memory access: timing through the hierarchy, value through the SSB's
	// multi-version combine (speculative) or backing memory (architectural).
	done, ok := m.hier.Load(e.pc, e.addr, m.now)
	if !ok {
		m.stats.LoadRetriesMSHR++
		m.replayQ = append(m.replayQ, e)
		return false
	}
	chain := m.chainUpTo(e.tid)
	raw, _ := m.ssb.Read(chain, e.addr, e.memSize)
	e.result = isa.ExtendLoad(e.inst.Op, raw)
	e.taint = e.transient
	if m.isSpec(e.tid) {
		// The read is serviced now: record it (Algorithm 1) and charge the
		// SSB read latency (3 cycles including the L1D probe).
		m.granScratch = m.ssb.AppendGranules(m.granScratch[:0], e.addr, e.memSize)
		m.cd.OnRead(e.tid, m.granScratch)
		if m.spectreLive && !e.taint && m.granulesTainted(chain, m.granScratch) {
			e.taint = true // tainted store data observed through the SSB
		}
		if ssbDone := m.now + m.ssb.Config().ReadLatency; ssbDone > done {
			done = ssbDone
		}
	}
	e.readyAt = done
	m.executing = append(m.executing, e)
	return true
}

// findOlderStore returns the youngest store older than the load in the same
// threadlet whose (resolved) address overlaps it. partial reports that the
// store does not fully cover the load.
func (m *Machine) findOlderStore(t *threadlet, load *dynInst) (st *dynInst, partial bool) {
	size := int32(load.memSize)
	covers := func(addr uint64, sz int32) bool {
		return addr <= load.addr && addr+uint64(sz) >= load.addr+uint64(size)
	}
	// Unresolved stores are passed over: the load proceeds optimistically.
	stores := t.stIdx.items()
	for i := recIndex(stores, load.seq) - 1; i >= 0; i-- {
		if r := &stores[i]; r.valid && overlaps(r.addr, r.size, load.addr, size) {
			return r.e, !covers(r.addr, r.size)
		}
	}
	drain := t.drain.items()
	for i := len(drain) - 1; i >= 0; i-- {
		s := drain[i]
		if sz := int32(s.memSize); overlaps(s.addr, sz, load.addr, size) {
			return s, !covers(s.addr, sz)
		}
	}
	return nil, false
}

// execStore generates the store's address (and captures its data). Younger
// loads in the same threadlet that already executed past it with an
// overlapping address violated program order and replay (the LSQ check).
func (m *Machine) execStore(e *dynInst) {
	t := m.threads[e.tid]
	e.addr = e.srcVal[0] + uint64(e.inst.Imm)
	e.addrValid = true
	e.readyAt = m.now + 1
	m.executing = append(m.executing, e)
	m.stats.Stores++

	if r := recOf(&t.stIdx, e); r != nil {
		r.addr, r.valid = e.addr, true
	}

	// The oldest younger load that already executed with an overlapping
	// address violated program order.
	size := int32(e.memSize)
	loads := t.ldIdx.items()
	for i := recIndex(loads, e.seq+1); i < len(loads); i++ {
		l := &loads[i]
		if !l.valid || !overlaps(l.addr, l.size, e.addr, size) {
			continue
		}
		if l.fwdSeq > e.seq {
			continue // forwarded from a store younger than this one
		}
		m.stats.LoadReplaysLSQ++
		m.rollbackTo(t, l.seq, l.e.pc, nil)
		return
	}
}

// seqIndex returns the index of the first instruction in rob whose age is at
// least seq. A threadlet's ROB is in strictly increasing age order.
func seqIndex(rob []*dynInst, seq uint64) int {
	lo, hi := 0, len(rob)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rob[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// writeback completes instructions whose results are ready: it wakes
// dependents, fills checkpoint futures, and resolves branches.
func (m *Machine) writeback() {
	if len(m.executing) == 0 {
		return
	}
	remaining := m.executing[:0]
	finished := m.finished[:0]
	for _, e := range m.executing {
		switch {
		case e.squashed:
			m.freeInst(e)
		case e.readyAt <= m.now:
			finished = append(finished, e)
		default:
			remaining = append(remaining, e)
		}
	}
	m.executing = remaining
	// Oldest-first resolution keeps branch recovery deterministic.
	sortByAge(finished)
	for _, e := range finished {
		if !e.squashed {
			m.complete(e)
		}
		// Squashed before it completed (by an older entry's recovery): this
		// list was its only queue.
		if e.squashed && e.state == stExecuting {
			m.freeInst(e)
		}
	}
	m.finished = finished[:0]
}

// complete finishes one instruction.
func (m *Machine) complete(e *dynInst) {
	t := m.threads[e.tid]
	if m.spectreLive && (e.meta.IsBranch || e.inst.Op == isa.JALR) {
		t.ctlResolved(e.seq)
	}
	if e.meta.IsBranch {
		m.resolveBranch(t, e)
		if e.squashed {
			return
		}
	}
	if e.inst.Op == isa.JALR {
		m.resolveIndirect(t, e)
		if e.squashed {
			return
		}
	}
	e.state = stDone
	if m.mitigate && e.meta.IsLoad && e.transient && !e.loadFwdSQ && !e.memFaulted {
		// ShadowBinding-style delay: the transient load's result is withheld
		// from dependents until the window closes (releaseDelayedWakes).
		e.wakeHeld = true
		m.delayedWake = append(m.delayedWake, e)
		m.stats.DelayedWakes++
		return
	}
	m.wake(e)
}

// wake delivers a completed result to dependents and checkpoint slots. A
// waiter acts only if it still names e as a producer: release cleared a
// squashed waiter's srcProd, and a recycled one names its new producers, so
// a stale entry does nothing.
func (m *Machine) wake(e *dynInst) {
	for _, w := range e.waiters {
		if w.srcProd[0] != e && w.srcProd[1] != e {
			continue
		}
		for s := 0; s < 2; s++ {
			if w.srcProd[s] == e {
				w.srcProd[s] = nil
				w.srcReady[s] = true
				w.srcVal[s] = e.result
				w.srcTaint[s] = e.taint
			}
		}
		if w.srcReady[0] && w.srcReady[1] {
			m.enqueueReady(w)
		}
	}
	e.waiters = nil
	e.waitBuf = [waitBufLen]*dynInst{}
	for _, cw := range e.ckptWaiters {
		ct := m.threads[cw.tid]
		if m.gens[cw.tid] != cw.gen || ct.ckptPending[cw.reg] != e {
			continue
		}
		ct.ckptPending[cw.reg] = nil
		ct.ckptRegs[cw.reg] = e.result
		ct.ckptTaint[cw.reg] = e.taint
		if !ct.writtenMask[cw.reg] {
			ct.committedRegs[cw.reg] = e.result
		}
	}
	e.ckptWaiters = nil
}

// resolveBranch compares the execute-time outcome with the fetch-time
// prediction and recovers on a mismatch.
func (m *Machine) resolveBranch(t *threadlet, e *dynInst) {
	taken := isa.BranchTaken(e.inst.Op, e.srcVal[0], e.srcVal[1])
	target := e.pc + 1
	if taken {
		target = int(e.inst.Imm)
	}
	e.result = 0
	if taken {
		e.result = 1
	}
	if taken == e.predTaken {
		return
	}
	// Misprediction: squash younger work in this threadlet and redirect.
	m.bp.OnSquash(t.id, e.pred.Hist, taken)
	m.rollbackTo(t, e.seq+1, target, e)
}

// resolveIndirect checks a JALR's computed target against the front end's
// assumption.
func (m *Machine) resolveIndirect(t *threadlet, e *dynInst) {
	target := int(e.srcVal[0] + uint64(e.inst.Imm))
	e.actualTarget = target
	if e.predTarget == -1 {
		// The front end stalled on this jump: release it.
		if t.fq.len() == 0 && t.fetchPC == -1 {
			t.fetchPC = target
			t.fetchReadyAt = m.now + 1
		} else {
			m.redirectFetch(t, target)
		}
		return
	}
	if target != e.predTarget {
		m.stats.IndirectMispredicts++
		m.rollbackTo(t, e.seq+1, target, e)
	}
}
