package cpu

import (
	"loopfrog/internal/bpred"
	"loopfrog/internal/isa"
)

// instBytesForICache is the assumed instruction footprint for I-cache timing
// (a conventional RISC front end), independent of the serialised encoding.
const instBytesForICache = 4

// fetch runs the shared front end: up to Width instructions per cycle are
// fetched across live threadlets, oldest threadlet first, each into its own
// (duplicated) fetch queue.
func (m *Machine) fetch() {
	budget := m.cfg.Width
	for _, tid := range m.order {
		if budget == 0 {
			break
		}
		budget -= m.fetchOne(m.threads[tid], budget)
	}
}

func (m *Machine) fetchOne(t *threadlet, budget int) int {
	if t.fetchHalted || m.now < t.fetchReadyAt {
		return 0
	}
	count := 0
	// The fetch queue entry is occupied only after the front-end pipe; an
	// instruction spends FrontendDepth cycles in flight before it becomes
	// queue-resident, so the in-flight window adds depth*width of capacity.
	capacity := m.cfg.FetchQueue + m.cfg.FrontendDepth*m.cfg.Width
	for count < budget && t.fq.len() < capacity {
		pc := t.fetchPC
		if pc < 0 || pc >= len(m.code) {
			// Wrong-path fetch ran off the program; stall until redirected.
			return count
		}
		// Instruction cache timing, one lookup per line.
		lineTag := uint64(pc*instBytesForICache) / uint64(m.cfg.Hier.L1I.LineBytes)
		if !t.lineValid || lineTag != t.lineTagFetched {
			done := m.hier.Fetch(uint64(pc*instBytesForICache), m.now)
			t.lineTagFetched = lineTag
			t.lineValid = true
			if done > m.now+m.cfg.Hier.L1I.HitLatency {
				t.fetchReadyAt = done
				return count
			}
		}
		d := m.code[pc]
		inst := d.Inst
		fe := fetchEntry{pc: pc, inst: inst, meta: d.Meta, readyAt: m.now + int64(m.cfg.FrontendDepth)}
		next := pc + 1
		meta := d.Meta
		switch {
		case meta.IsBranch:
			st := m.bp.PredictBranch(t.id, pc)
			fe.pred, fe.hasPred = st, true
			fe.predTaken = st.Taken
			if m.inj != nil && m.inj.FlipBranch(m.now, pc) {
				fe.predTaken = !fe.predTaken
			}
			if fe.predTaken {
				next = int(inst.Imm)
			}
			fe.predTgt = next
		case inst.Op == isa.JAL:
			next = int(inst.Imm)
			if bpred.IsCall(inst) {
				m.bp.PushRAS(t.id, pc+1)
			}
			fe.predTgt = next
		case inst.Op == isa.JALR:
			switch {
			case bpred.IsReturn(inst):
				next = m.bp.PopRAS(t.id)
				fe.predTgt = next
			default:
				if bpred.IsCall(inst) {
					m.bp.PushRAS(t.id, pc+1)
				}
				if tgt, ok := m.bp.PredictIndirect(pc); ok {
					next = tgt
					fe.predTgt = next
				} else {
					// No target prediction: fetch stalls until the jump
					// resolves in the back end.
					fe.predTgt = -1
					t.fq.push(fe)
					t.fetchPC = -1 // poisoned until resolution
					count++
					return count
				}
			}
		case inst.Op == isa.HALT:
			t.fq.push(fe)
			t.fetchHalted = true
			t.haltSeen = true
			return count + 1
		}
		t.fq.push(fe)
		t.fetchPC = next
		count++
	}
	return count
}

// redirectFetch points a threadlet's front end at pc, discarding fetched but
// not yet dispatched entries and charging the refill penalty.
func (m *Machine) redirectFetch(t *threadlet, pc int) {
	t.fq.truncate(0)
	t.fetchPC = pc
	t.fetchReadyAt = m.now + int64(m.cfg.FrontendDepth)
	t.lineValid = false
	// A wrong-path HALT (or reattach) may have latched the front end while
	// still sitting in the now-discarded fetch queue; a redirect always
	// resumes fetching.
	t.fetchHalted = false
	t.haltSeen = false
	m.stats.RedirectStalls++
}
