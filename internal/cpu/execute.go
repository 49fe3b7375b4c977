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
	rq := &m.readyQ[e.meta().Class]
	rq.push(e.self)
	q := rq.items()
	i := len(q) - 1
	for ; i > 0 && e.olderThan(m.at(q[i-1])); i-- {
		q[i] = q[i-1]
	}
	q[i] = e.self
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
	if m.replayQ.len() > 0 {
		// Kept and re-deferred loads refill the list from its front, never
		// past the entry being read.
		q := m.replayQ.items()
		m.replayQ.truncate(0)
		for _, h := range q {
			e := m.at(h)
			if e.squashed {
				m.freeInst(e)
				continue
			}
			if loadBudget == 0 {
				m.replayQ.push(h)
				continue
			}
			if m.execLoad(e) {
				loadBudget--
			}
		}
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		rq := &m.readyQ[c]
		if rq.len() == 0 {
			continue
		}
		q := rq.items()
		units := m.unitsFor(c)
		if c == isa.ClassLoad {
			units = loadBudget
		}
		// The queue is in age order, so older epochs issue first: the
		// oldest units ready entries issue, picked before any executes.
		// Squashed entries met on the way are dropped; those further back
		// wait until they reach the front.
		// The picked entries are moved to the front of the queue's own
		// array, behind which the rest is moved up once they executed.
		live := q[:0]
		k := 0
		for ; k < len(q) && len(live) < units; k++ {
			if e := m.at(q[k]); e.squashed {
				m.freeInst(e)
			} else if e.state == stReady {
				live = append(live, q[k])
			}
		}
		for _, h := range live {
			m.execOne(m.at(h))
		}
		rq.truncate(copy(q, q[k:]))
	}
}

// sortByAge orders instructions oldest first (olderThan). It is a stable
// insertion sort, since the lists it sorts are short and mostly in order
// already, and allocates nothing.
func (m *Machine) sortByAge(q []instRef) {
	for i := 1; i < len(q); i++ {
		h := q[i]
		e := m.at(h)
		j := i
		for ; j > 0 && e.olderThan(m.at(q[j-1])); j-- {
			q[j] = q[j-1]
		}
		q[j] = h
	}
}

// execOne starts execution of one instruction. A load the memory system
// cannot take yet goes to the replay queue; its pipe slot is spent all the
// same.
func (m *Machine) execOne(e *dynInst) {
	e.state = stExecuting
	m.iqUsed--
	m.threads[e.tid].iqHeld--
	switch meta := e.meta(); {
	case meta.IsLoad:
		m.execLoad(e)
	case meta.IsStore:
		m.execStore(e)
	case meta.IsBranch:
		e.result = 0
		e.readyAt = m.now + 1
		m.executing.push(execRef{e.self, e.readyAt})
	case e.inst.Op == isa.JAL || e.inst.Op == isa.JALR:
		e.result = uint64(e.pc + 1)
		e.readyAt = m.now + 1
		m.executing.push(execRef{e.self, e.readyAt})
	default:
		e.result = isa.EvalALU(e.inst, e.srcVal[0], e.srcVal[1])
		e.taint = e.srcTaint[0] || e.srcTaint[1]
		e.readyAt = m.now + int64(meta.Latency)
		m.executing.push(execRef{e.self, e.readyAt})
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
			m.replayQ.push(e.self)
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
		m.executing.push(execRef{e.self, e.readyAt})
		return true
	}

	// An invalid (unaligned) load address never reaches the memory system:
	// the load completes with a zero result and raises a MemFault at commit
	// if it turns out to be on the committed path (commit.go). Wrong-path
	// loads routinely compute garbage addresses; they must not crash the run.
	if mem.ValidateAccess(e.addr, int(e.memSize)) != nil {
		e.memFaulted = true
		e.result = 0
		e.readyAt = m.now + 1
		m.executing.push(execRef{e.self, e.readyAt})
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
		m.replayQ.push(e.self)
		return false
	}
	chain := m.chainUpTo(e.tid)
	raw, _ := m.ssb.Read(chain, e.addr, int(e.memSize))
	e.result = isa.ExtendLoad(e.inst.Op, raw)
	e.taint = e.transient
	if m.isSpec(e.tid) {
		// The read is serviced now: record it (Algorithm 1) and charge the
		// SSB read latency (3 cycles including the L1D probe).
		gs := m.granules(e.addr, int(e.memSize))
		m.cd.OnRead(e.tid, gs)
		if m.spectreLive && !e.taint && m.granulesTainted(chain, gs) {
			e.taint = true // tainted store data observed through the SSB
		}
		if ssbDone := m.now + m.ssb.Config().ReadLatency; ssbDone > done {
			done = ssbDone
		}
	}
	e.readyAt = done
	m.executing.push(execRef{e.self, e.readyAt})
	return true
}

// granules returns the SSB granules the access [addr, addr+size) covers, in
// a scratch buffer the next call reuses. The buffer is stored back only when
// it grew, so that a call writes no slice header (list).
func (m *Machine) granules(addr uint64, size int) []uint64 {
	g := m.ssb.AppendGranules(m.granScratch[:0], addr, size)
	if cap(g) != cap(m.granScratch) {
		m.granScratch = g
	}
	return g
}

// findOlderStore returns the youngest store older than the load in the same
// threadlet whose (resolved) address overlaps it. partial reports that the
// store does not fully cover the load.
func (m *Machine) findOlderStore(t *threadlet, load *dynInst) (st *dynInst, partial bool) {
	size := load.memSize
	covers := func(addr uint64, sz int32) bool {
		return addr <= load.addr && addr+uint64(sz) >= load.addr+uint64(size)
	}
	// Unresolved stores are passed over: the load proceeds optimistically.
	stores := t.stIdx.items()
	for i := recIndex(stores, load.seq) - 1; i >= 0; i-- {
		if r := &stores[i]; r.valid && overlaps(r.addr, r.size, load.addr, size) {
			return m.at(r.e), !covers(r.addr, r.size)
		}
	}
	drain := t.drain.items()
	for i := len(drain) - 1; i >= 0; i-- {
		s := m.at(drain[i])
		if sz := s.memSize; overlaps(s.addr, sz, load.addr, size) {
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
	m.executing.push(execRef{e.self, e.readyAt})
	m.stats.Stores++

	if r := recOf(&t.stIdx, e); r != nil {
		r.addr, r.valid = e.addr, true
	}

	// The oldest younger load that already executed with an overlapping
	// address violated program order.
	size := e.memSize
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
		m.rollbackTo(t, l.seq, m.at(l.e).pc, nil)
		return
	}
}

// seqIndex returns the index of the first instruction in rob whose age is at
// least seq. A threadlet's ROB is in strictly increasing age order.
func (m *Machine) seqIndex(rob []instRef, seq uint64) int {
	lo, hi := 0, len(rob)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.at(rob[mid]).seq < seq {
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
	if m.executing.len() == 0 {
		return
	}
	remaining := 0
	m.finished.truncate(0)
	for _, x := range m.executing.items() {
		if x.readyAt > m.now {
			// Not done yet, squashed or not: it is looked at when it is.
			m.executing.buf[remaining] = x
			remaining++
		} else if e := m.at(x.h); e.squashed {
			m.freeInst(e)
		} else {
			m.finished.push(x.h)
		}
	}
	m.executing.truncate(remaining)
	// Oldest-first resolution keeps branch recovery deterministic.
	finished := m.finished.items()
	m.sortByAge(finished)
	for _, h := range finished {
		e := m.at(h)
		if !e.squashed {
			m.complete(e)
		}
		// Squashed before it completed (by an older entry's recovery): this
		// list was its only queue.
		if e.squashed && e.state == stExecuting {
			m.freeInst(e)
		}
	}
}

// complete finishes one instruction.
func (m *Machine) complete(e *dynInst) {
	t := m.threads[e.tid]
	meta := e.meta()
	if m.spectreLive && (meta.IsBranch || e.inst.Op == isa.JALR) {
		t.ctlResolved(e.seq)
	}
	if meta.IsBranch {
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
	if m.mitigate && meta.IsLoad && e.transient && !e.loadFwdSQ && !e.memFaulted {
		// ShadowBinding-style delay: the transient load's result is withheld
		// from dependents until the window closes (releaseDelayedWakes).
		e.wakeHeld = true
		m.delayedWake.push(e.self)
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
	for i := uint8(0); i < e.nWait; i++ {
		m.deliver(e, e.waitBuf[i])
	}
	for n := e.waitHead; n != 0; n = m.waitNodes[n].next {
		m.deliver(e, m.waitNodes[n].w)
	}
	m.dropWaiters(e)
	if e.ckptWaited {
		m.takeCkptWaits(e, true)
	}
}

// deliver hands e's result to the waiter h, if h still waits on e.
func (m *Machine) deliver(e *dynInst, h instRef) {
	w := m.at(h)
	if w.srcProd[0] != e.self && w.srcProd[1] != e.self {
		return
	}
	for s := 0; s < 2; s++ {
		if w.srcProd[s] == e.self {
			w.srcProd[s] = 0
			w.srcReady[s] = true
			w.srcVal[s] = e.result
			w.srcTaint[s] = e.taint
		}
	}
	if w.srcReady[0] && w.srcReady[1] {
		m.enqueueReady(w)
	}
}

// fillCkpt writes e's result into the checkpoint slot cw, unless the slot's
// threadlet was respawned or its slot no longer waits on e.
func (m *Machine) fillCkpt(e *dynInst, cw ckptWait) {
	ct := m.threads[cw.tid]
	if m.gens[cw.tid] != cw.tgen || ct.ckptPending[cw.reg] != e.self {
		return
	}
	ct.ckptPending[cw.reg] = 0
	ct.ckptRegs[cw.reg] = e.result
	ct.ckptTaint[cw.reg] = e.taint
	if !ct.writtenMask[cw.reg] {
		ct.committedRegs[cw.reg] = e.result
		ct.committedTaint[cw.reg] = e.taint
	}
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
	e.actualTarget = int32(target)
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
