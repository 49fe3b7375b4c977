// Package bpred implements the front-end predictors from Table 1 of the
// paper: a TAGE-style tagged-geometric conditional branch predictor with a
// loop-predictor component (after L-TAGE), an indirect-target buffer (BTB),
// and per-threadlet return address stacks.
//
// As in §6.1, prediction tables are shared and updated by all threadlet
// contexts, while the global history is kept per threadlet, so speculative
// threadlets neither see nor pollute each other's in-flight history.
package bpred

import (
	"sync"

	"loopfrog/internal/isa"
)

// Config sizes the predictor.
type Config struct {
	// TableBits is log2 of entries per tagged table.
	TableBits int
	// BimodalBits is log2 of base-predictor entries.
	BimodalBits int
	// Histories lists the geometric global-history lengths of the tagged
	// tables, shortest first. Lengths above 64 are folded into the 64-bit
	// history register.
	Histories []int
	// LoopEntries is the number of loop-predictor entries.
	LoopEntries int
	// LoopConfidence is the confidence threshold before the loop predictor
	// overrides TAGE.
	LoopConfidence int
	// BTBEntries is the number of indirect-target buffer entries.
	BTBEntries int
	// RASEntries is the depth of each return address stack.
	RASEntries int
}

// DefaultConfig mirrors the 256 Kbit L-TAGE budget of Table 1 at the
// fidelity of this model.
func DefaultConfig() Config {
	return Config{
		TableBits:      10,
		BimodalBits:    13,
		Histories:      []int{2, 4, 8, 16, 32, 64},
		LoopEntries:    256,
		LoopConfidence: 3,
		BTBEntries:     4096,
		RASEntries:     48,
	}
}

type tagEntry struct {
	tag  uint16
	ctr  int8 // -4..3; >= 0 predicts taken
	u    uint8
	used bool
}

type loopEntry struct {
	pc    int
	trip  uint32
	cnt   uint32
	conf  uint8
	valid bool
}

// BranchState is the opaque per-prediction state the core must hand back at
// update time. It also carries the history snapshot used to recover a
// threadlet's history after a misprediction squash.
type BranchState struct {
	// Hist is the global history register value *before* this prediction was
	// inserted. OnSquash restores it (plus the corrected outcome).
	Hist uint64
	// provider is the tagged table that provided the prediction (-1 for the
	// bimodal base). providerIdx locates the provider entry. Both are
	// 32-bit, and the flags follow them, so the state packs into 24 bytes:
	// the core copies one per fetched branch.
	provider    int32
	providerIdx int32
	// Taken is the overall prediction delivered.
	Taken bool
	// altTaken is the alternate (next-best) prediction, used for the
	// usefulness update.
	altTaken bool
	// loopHit notes that the loop predictor overrode TAGE.
	loopHit bool
}

// Predictor is a shared-table, per-threadlet-history branch predictor.
// It is not safe for concurrent use.
type Predictor struct {
	cfg     Config
	bimodal []int8
	tables  [][]tagEntry
	loop    []loopEntry
	hist    []uint64 // per-threadlet global history
	btb     []btbEntry
	ras     [][]int
	rasTop  []int

	// Stats.
	Lookups    uint64
	LoopUses   uint64
	RASPushes  uint64
	RASPops    uint64
	BTBHits    uint64
	BTBMisses  uint64
	Allocs     uint64
	LoopTrains uint64
}

type btbEntry struct {
	pc     int
	target int
	valid  bool
}

// New returns a predictor for numThreadlets contexts.
func New(cfg Config, numThreadlets int) *Predictor {
	p, reused := alloc(cfg, numThreadlets)
	if reused {
		clear(p.bimodal)
		for _, t := range p.tables {
			clear(t)
		}
		clear(p.loop)
		clear(p.btb)
	}
	return p
}

// spare holds predictors whose machines are done with them (Recycle). New
// and CloneFor reuse the shared tables of one whose geometry they need
// instead of allocating the tables afresh.
var spare sync.Pool

// Recycle hands p's tables to a later New or CloneFor. p must not be used
// afterwards.
func (p *Predictor) Recycle() { spare.Put(p) }

// alloc returns a predictor with cfg's geometry for numThreadlets contexts,
// zero statistics and cold per-context state (history and return stacks).
// Its shared tables are zero when newly made, and stale when reused from
// spare (reused), so the caller fills or clears them.
func alloc(cfg Config, numThreadlets int) (p *Predictor, reused bool) {
	p, _ = spare.Get().(*Predictor)
	if reused = p != nil && p.fits(cfg); reused {
		*p = Predictor{bimodal: p.bimodal, tables: p.tables, loop: p.loop, btb: p.btb}
	} else {
		p = &Predictor{
			bimodal: make([]int8, 1<<cfg.BimodalBits),
			loop:    make([]loopEntry, cfg.LoopEntries),
			btb:     make([]btbEntry, cfg.BTBEntries),
			tables:  make([][]tagEntry, len(cfg.Histories)),
		}
		for i := range p.tables {
			p.tables[i] = make([]tagEntry, 1<<cfg.TableBits)
		}
	}
	p.cfg = cfg
	p.hist = make([]uint64, numThreadlets)
	p.ras = make([][]int, numThreadlets)
	p.rasTop = make([]int, numThreadlets)
	for i := range p.ras {
		p.ras[i] = make([]int, cfg.RASEntries)
	}
	return p, reused
}

// fits reports whether p's shared tables have the sizes cfg asks for.
func (p *Predictor) fits(cfg Config) bool {
	if len(p.bimodal) != 1<<cfg.BimodalBits || len(p.loop) != cfg.LoopEntries ||
		len(p.btb) != cfg.BTBEntries || len(p.tables) != len(cfg.Histories) {
		return false
	}
	for _, t := range p.tables {
		if len(t) != 1<<cfg.TableBits {
			return false
		}
	}
	return true
}

// CloneFor returns a deep copy of the predictor's learned state sized for
// numThreadlets contexts, with statistics counters reset. It is how the
// fast-functional tier's warm tables seed a detailed machine: shared
// structures (tagged tables, bimodal, loop predictor, BTB) carry over as-is,
// while the per-threadlet state — global history and return address stack —
// transfers from context 0 (the only context a sequential warming run
// exercises) into the clone's context 0; other contexts start cold exactly as
// in New, which matches the machine's semantics (a spawned threadlet inherits
// its parent's history at spawn).
func (p *Predictor) CloneFor(numThreadlets int) *Predictor {
	c, _ := alloc(p.cfg, numThreadlets)
	copy(c.bimodal, p.bimodal)
	for i := range p.tables {
		copy(c.tables[i], p.tables[i])
	}
	copy(c.loop, p.loop)
	copy(c.btb, p.btb)
	if len(p.hist) > 0 && len(c.hist) > 0 {
		c.hist[0] = p.hist[0]
		copy(c.ras[0], p.ras[0])
		c.rasTop[0] = p.rasTop[0]
	}
	return c
}

// History returns the current speculative global history of a threadlet.
// The core snapshots it when spawning a threadlet so the child starts from
// the parent's history.
func (p *Predictor) History(tid int) uint64 { return p.hist[tid] }

// SetHistory overwrites a threadlet's global history (used at threadlet
// spawn and restart).
func (p *Predictor) SetHistory(tid int, h uint64) { p.hist[tid] = h }

func (p *Predictor) foldHist(h uint64, length, bits int) uint64 {
	if length > 64 {
		length = 64
	}
	masked := h & (1<<uint(length) - 1)
	var folded uint64
	for masked != 0 {
		folded ^= masked & (1<<uint(bits) - 1)
		masked >>= uint(bits)
	}
	return folded
}

func (p *Predictor) index(t int, pc int, h uint64) int {
	bits := p.cfg.TableBits
	f := p.foldHist(h, p.cfg.Histories[t], bits)
	return int((uint64(pc) ^ uint64(pc)>>uint(bits) ^ f ^ f<<1) & (1<<uint(bits) - 1))
}

func (p *Predictor) tag(t int, pc int, h uint64) uint16 {
	f := p.foldHist(h, p.cfg.Histories[t], 9)
	return uint16((uint64(pc)>>2 ^ uint64(pc) ^ f<<2 ^ f>>3) & 0x7ff)
}

func (p *Predictor) bimodalIdx(pc int) int {
	return pc & (1<<uint(p.cfg.BimodalBits) - 1)
}

// PredictBranch predicts the direction of the conditional branch at pc for
// threadlet tid, speculatively inserting the prediction into the threadlet's
// history. The returned state must be passed to UpdateBranch when the branch
// resolves, and its Hist field to OnSquash if younger state is thrown away.
func (p *Predictor) PredictBranch(tid int, pc int) BranchState {
	p.Lookups++
	h := p.hist[tid]
	st := BranchState{Hist: h, provider: -1}

	// Base prediction.
	base := p.bimodal[p.bimodalIdx(pc)] >= 0
	pred, alt := base, base

	// Longest-history tagged match wins; next-longest is the alternate.
	for t := len(p.tables) - 1; t >= 0; t-- {
		idx := p.index(t, pc, h)
		e := &p.tables[t][idx]
		if e.used && e.tag == p.tag(t, pc, h) {
			if st.provider < 0 {
				st.provider = int32(t)
				st.providerIdx = int32(idx)
				pred = e.ctr >= 0
			} else {
				alt = e.ctr >= 0
				break
			}
		}
	}
	if st.provider >= 0 && int(st.provider) == len(p.tables)-1 {
		alt = base
	}
	st.altTaken = alt

	// Loop predictor override: when confident about the trip count, predict
	// not-taken exactly at the trip boundary.
	if le := p.loopLookup(pc); le != nil && le.conf >= uint8(p.cfg.LoopConfidence) {
		st.loopHit = true
		p.LoopUses++
		// cnt counts completed taken iterations this trip; the backedge is
		// taken while cnt < trip and falls through exactly at cnt == trip.
		pred = le.cnt < le.trip
	}

	st.Taken = pred
	p.hist[tid] = h<<1 | b2u(pred)
	return st
}

// UpdateBranch trains the predictor with the resolved outcome. If the
// prediction was wrong the caller must also call OnSquash to repair the
// threadlet's speculative history.
func (p *Predictor) UpdateBranch(tid int, pc int, taken bool, st BranchState) {
	// Bimodal always trains.
	bi := p.bimodalIdx(pc)
	p.bimodal[bi] = satUpdate(p.bimodal[bi], taken, -2, 1)

	h := st.Hist
	if st.provider >= 0 {
		e := &p.tables[st.provider][st.providerIdx]
		e.ctr = satUpdate(e.ctr, taken, -4, 3)
		providerPred := st.Taken
		if st.loopHit {
			providerPred = e.ctr >= 0 // loop override hides the provider's own call
		}
		if providerPred == taken && st.altTaken != taken && e.u < 3 {
			e.u++
		}
	}
	// Allocate a longer-history entry on a TAGE miss.
	mispred := st.Taken != taken
	if mispred && int(st.provider) < len(p.tables)-1 {
		p.allocate(int(st.provider)+1, pc, h, taken)
	}
	p.loopTrain(pc, taken)
}

func (p *Predictor) allocate(from int, pc int, h uint64, taken bool) {
	for t := from; t < len(p.tables); t++ {
		idx := p.index(t, pc, h)
		e := &p.tables[t][idx]
		if !e.used || e.u == 0 {
			*e = tagEntry{tag: p.tag(t, pc, h), used: true}
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			p.Allocs++
			return
		}
		e.u-- // gradually age out useful entries
	}
}

func (p *Predictor) loopLookup(pc int) *loopEntry {
	e := &p.loop[pc%len(p.loop)]
	if e.valid && e.pc == pc {
		return e
	}
	return nil
}

func (p *Predictor) loopTrain(pc int, taken bool) {
	e := &p.loop[pc%len(p.loop)]
	if !e.valid || e.pc != pc {
		if taken {
			*e = loopEntry{pc: pc, cnt: 1, valid: true}
		}
		return
	}
	if taken {
		e.cnt++
		if e.trip > 0 && e.cnt > e.trip {
			// Ran past the learned trip count: unlearn.
			e.trip = 0
			e.conf = 0
		}
		return
	}
	// Not taken: an iteration count has completed.
	p.LoopTrains++
	if e.trip == e.cnt && e.trip > 0 {
		if e.conf < 7 {
			e.conf++
		}
	} else {
		e.trip = e.cnt
		e.conf = 0
	}
	e.cnt = 0
}

// OnSquash restores a threadlet's speculative history to hist (the snapshot
// taken at the mispredicted branch) extended with the corrected outcome.
func (p *Predictor) OnSquash(tid int, hist uint64, taken bool) {
	p.hist[tid] = hist<<1 | b2u(taken)
}

// CopyRAS copies the return address stack of threadlet src into dst, so a
// freshly spawned threadlet predicts returns from the parent's call context.
func (p *Predictor) CopyRAS(dst, src int) {
	copy(p.ras[dst], p.ras[src])
	p.rasTop[dst] = p.rasTop[src]
}

// PredictIndirect returns the BTB target for an indirect jump at pc.
func (p *Predictor) PredictIndirect(pc int) (int, bool) {
	e := &p.btb[pc%len(p.btb)]
	if e.valid && e.pc == pc {
		p.BTBHits++
		return e.target, true
	}
	p.BTBMisses++
	return 0, false
}

// UpdateIndirect trains the BTB with a resolved indirect target.
func (p *Predictor) UpdateIndirect(pc, target int) {
	p.btb[pc%len(p.btb)] = btbEntry{pc: pc, target: target, valid: true}
}

// PushRAS pushes a return address for threadlet tid (on a call).
func (p *Predictor) PushRAS(tid, ret int) {
	p.RASPushes++
	s := p.ras[tid]
	p.rasTop[tid] = (p.rasTop[tid] + 1) % len(s)
	s[p.rasTop[tid]] = ret
}

// PopRAS pops a predicted return address for threadlet tid.
func (p *Predictor) PopRAS(tid int) int {
	p.RASPops++
	s := p.ras[tid]
	v := s[p.rasTop[tid]]
	p.rasTop[tid] = (p.rasTop[tid] - 1 + len(s)) % len(s)
	return v
}

// IsCall reports whether inst is a call (jump-and-link to a real register).
func IsCall(inst isa.Inst) bool {
	return (inst.Op == isa.JAL || inst.Op == isa.JALR) && inst.Rd != isa.X0
}

// IsReturn reports whether inst is a return (indirect jump through ra
// without linking).
func IsReturn(inst isa.Inst) bool {
	return inst.Op == isa.JALR && inst.Rd == isa.X0 && inst.Rs1 == isa.X(1)
}

func satUpdate(c int8, taken bool, min, max int8) int8 {
	if taken {
		if c < max {
			return c + 1
		}
		return c
	}
	if c > min {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
