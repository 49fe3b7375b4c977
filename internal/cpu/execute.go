package cpu

import (
	"loopfrog/internal/isa"
	"loopfrog/internal/mem"
)

// enqueueReady moves an instruction whose operands are all available into
// its class's ready queue.
func (m *Machine) enqueueReady(e *dynInst) {
	if e.state != stDispatched {
		return
	}
	e.state = stReady
	m.readyQ[e.meta.Class] = append(m.readyQ[e.meta.Class], e)
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
		clear(q[len(m.replayQ):])
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		q := m.readyQ[c]
		if len(q) == 0 {
			continue
		}
		// Drop squashed entries, then prioritise by epoch order and age.
		live := q[:0]
		for _, e := range q {
			if e.squashed {
				m.freeInst(e)
			} else if e.state == stReady {
				live = append(live, e)
			}
		}
		m.sortByAge(live)
		units := m.unitsFor(c)
		if c == isa.ClassLoad {
			units = loadBudget
		}
		n := 0
		for _, e := range live {
			if n >= units {
				break
			}
			if m.execOne(e) {
				n++
			}
		}
		m.readyQ[c] = append(q[:0], live[min(n, len(live)):]...)
		clear(q[len(m.readyQ[c]):])
	}
}

// sortByAge orders instructions oldest first: by epoch order, then by age
// within a threadlet. It is a stable insertion sort, since the queues it
// sorts are short and mostly in order already, and allocates nothing.
func (m *Machine) sortByAge(q []*dynInst) {
	if len(q) < 2 {
		return
	}
	rank := m.ageRank
	for i := range rank {
		rank[i] = -1
	}
	for i, tid := range m.order {
		rank[tid] = i
	}
	for i := 1; i < len(q); i++ {
		e := q[i]
		r := rank[e.tid]
		j := i
		for ; j > 0; j-- {
			p := q[j-1]
			if rp := rank[p.tid]; rp < r || rp == r && p.seq <= e.seq {
				break
			}
			q[j] = p
		}
		q[j] = e
	}
}

// execOne starts execution of one instruction; it returns false if the
// instruction could not issue (and was re-queued).
func (m *Machine) execOne(e *dynInst) bool {
	e.state = stExecuting
	m.iqUsed--
	m.threads[e.tid].iqHeld--
	switch {
	case e.meta.IsLoad:
		if !m.execLoad(e) {
			return true // issued to the replay queue; the pipe slot is spent
		}
		return true
	case e.meta.IsStore:
		m.execStore(e)
		return true
	case e.meta.IsBranch:
		e.result = 0
		e.readyAt = m.now + 1
		m.executing = append(m.executing, e)
		return true
	case e.inst.Op == isa.JAL || e.inst.Op == isa.JALR:
		e.result = uint64(e.pc + 1)
		e.readyAt = m.now + 1
		m.executing = append(m.executing, e)
		return true
	default:
		e.result = isa.EvalALU(e.inst, e.srcVal[0], e.srcVal[1])
		e.taint = e.srcTaint[0] || e.srcTaint[1]
		e.readyAt = m.now + int64(e.meta.Latency)
		m.executing = append(m.executing, e)
		return true
	}
}

// execLoad performs address generation, intra-threadlet disambiguation, and
// the versioned memory read (§4.1.3). It returns false when the load was
// deferred to the replay queue.
func (m *Machine) execLoad(e *dynInst) bool {
	t := m.threads[e.tid]
	e.addr = e.srcVal[0] + uint64(e.inst.Imm)
	e.addrValid = true
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
		e.fwdSeq = st.seq
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
	check := func(s *dynInst) (hit, part bool) {
		if !s.addrValid {
			return false, false // unresolved: proceed optimistically
		}
		if s.addr+uint64(s.memSize) <= load.addr || load.addr+uint64(load.memSize) <= s.addr {
			return false, false
		}
		covers := s.addr <= load.addr && s.addr+uint64(s.memSize) >= load.addr+uint64(load.memSize)
		return true, !covers
	}
	rob := t.rob.items()
	for i := seqIndex(rob, load.seq) - 1; i >= 0; i-- {
		s := rob[i]
		if !s.meta.IsStore {
			continue
		}
		if hit, part := check(s); hit {
			return s, part
		}
	}
	drain := t.drain.items()
	for i := len(drain) - 1; i >= 0; i-- {
		if hit, part := check(drain[i]); hit {
			return drain[i], part
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

	// The oldest younger load that already executed with an overlapping
	// address violated program order.
	rob := t.rob.items()
	for _, l := range rob[seqIndex(rob, e.seq+1):] {
		if !l.meta.IsLoad || !l.addrValid {
			continue
		}
		if l.state != stExecuting && l.state != stDone {
			continue
		}
		if l.addr+uint64(l.memSize) <= e.addr || e.addr+uint64(e.memSize) <= l.addr {
			continue
		}
		if l.loadFwdSQ && l.fwdSeq > e.seq {
			continue // forwarded from a store younger than this one
		}
		m.stats.LoadReplaysLSQ++
		m.rollbackTo(t, l.seq, l.pc, nil)
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
	clear(m.executing[len(remaining):])
	m.executing = remaining
	// Oldest-first resolution keeps branch recovery deterministic.
	m.sortByAge(finished)
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
	clear(finished)
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
