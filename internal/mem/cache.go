package mem

// This file implements the timing side of the memory system: tag-only
// set-associative caches with MSHRs and write buffers, stride and next-line
// prefetchers, and a bandwidth-limited fixed-latency DRAM, per Table 1 of
// the paper. Data values live in the functional Memory; the hierarchy only
// answers "when would this access complete?", which is the contract the
// out-of-order core needs.

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name         string
	SizeBytes    int
	LineBytes    int
	Assoc        int
	HitLatency   int64
	MSHRs        int
	MSHRTargets  int
	WriteBuffers int
}

// StrideConfig configures a stride prefetcher.
type StrideConfig struct {
	// Degree is how many lines ahead to prefetch; 0 disables.
	Degree int
	// TableEntries sizes the per-PC training table.
	TableEntries int
}

// HierConfig configures the whole hierarchy.
type HierConfig struct {
	L1I, L1D, L2 CacheConfig
	// DRAMLatency is the access latency in core cycles.
	DRAMLatency int64
	// DRAMCyclesPerLine models bandwidth: minimum spacing between line
	// transfers.
	DRAMCyclesPerLine int64
	// L1DPrefetch and L2Prefetch configure stride prefetchers; L2 also
	// prefetches the neighbouring line on a miss when NextLine is set.
	L1DPrefetch StrideConfig
	L2Prefetch  StrideConfig
	L2NextLine  bool
}

// DefaultHierConfig reproduces Table 1: 64 KiB 4-way L1I (1-cycle) and L1D
// (2-cycle, 10 MSHRs x16, 12 write buffers, stride degree 2), 4 MiB 8-way L2
// (11-cycle, 32 MSHRs x16, 32 write buffers, stride degree 8 + neighbour),
// and ~60 ns DDR3 at 4 GHz with ~100 GiB/s of bandwidth.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I: CacheConfig{Name: "l1i", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, HitLatency: 1, MSHRs: 16, MSHRTargets: 8, WriteBuffers: 0},
		L1D: CacheConfig{Name: "l1d", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, HitLatency: 2, MSHRs: 10, MSHRTargets: 16, WriteBuffers: 12},
		L2:  CacheConfig{Name: "l2", SizeBytes: 4 << 20, LineBytes: 64, Assoc: 8, HitLatency: 11, MSHRs: 32, MSHRTargets: 16, WriteBuffers: 32},
		// 60ns at 4GHz = 240 cycles; 100 GiB/s at 4GHz ~ 25 B/cycle, so a
		// 64 B line occupies ~3 cycles of channel time.
		DRAMLatency:       240,
		DRAMCyclesPerLine: 3,
		L1DPrefetch:       StrideConfig{Degree: 2, TableEntries: 256},
		L2Prefetch:        StrideConfig{Degree: 8, TableEntries: 256},
		L2NextLine:        true,
	}
}

// CacheStats aggregates per-level counters.
type CacheStats struct {
	Accesses        uint64
	Hits            uint64
	Misses          uint64
	MSHRMergeHits   uint64
	MSHRStalls      uint64
	Writebacks      uint64
	PrefetchIssued  uint64
	PrefetchUseful  uint64
	SnoopInvalidate uint64
}

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool // brought in by a prefetch, not yet demand-hit
	lastUse  int64
	readyAt  int64 // fill completion time for in-flight lines
}

type mshrEntry struct {
	block   uint64
	fillAt  int64
	targets int
}

type strideTable struct {
	entries []strideEntry
}

type strideEntry struct {
	key   uint64
	last  uint64
	delta int64
	conf  int8
	valid bool
}

// slabShift sizes the slabs that owned sets are carved from: a slab holds
// 1<<slabShift sets.
const slabShift = 5

// level is one cache level.
//
// Sets are copy-on-write, under the rule mem.Memory follows for pages. A
// level writes in place only to the sets it owns: those carved from its own
// slabs, slabs[own:]. The first write to any other set copies that set into
// the level's current slab, and an empty set gets fresh ways there. A clone
// shares every set with its source and owns none; cloning a level that owns
// sets disowns them first, and cloning one that owns none writes nothing to
// it. The set table holds slab indices rather than pointers, so a clone's
// table is a flat copy the garbage collector never scans.
type level struct {
	cfg CacheConfig
	// sets maps each set to its ways. 0 is an empty set (every way
	// invalid); r > 0 names slot r-1 of the slab space (see ways).
	sets []uint32
	// slabs hold the ways of every non-empty set, 1<<slabShift sets each.
	// Slabs before own may be shared and are never written.
	slabs [][]line
	own   int
	// ownBase is own<<slabShift: set r is owned exactly when r > ownBase.
	ownBase uint32
	// used counts the sets carved from the last slab.
	used     int
	assoc    int
	setMask  uint64
	lineBits uint
	mshrs    []mshrEntry
	// outstanding store-miss count emulating write buffers.
	storeBusy []int64 // completion times of in-flight store misses
	stats     CacheStats
}

func newLevel(cfg CacheConfig) *level {
	numLines := cfg.SizeBytes / cfg.LineBytes
	numSets := numLines / cfg.Assoc
	if numSets < 1 {
		numSets = 1
	}
	l := &level{
		cfg:     cfg,
		sets:    make([]uint32, numSets),
		assoc:   cfg.Assoc,
		setMask: uint64(numSets - 1),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		l.lineBits++
	}
	return l
}

func (l *level) block(addr uint64) uint64 { return addr >> l.lineBits }

// ways returns the ways of non-empty set reference r.
func (l *level) ways(r uint32) []line {
	k := int(r - 1)
	i := (k & (1<<slabShift - 1)) * l.assoc
	return l.slabs[k>>slabShift][i : i+l.assoc : i+l.assoc]
}

// find looks block up without writing anything: it returns the index of
// block's set and the way holding block, or way -1.
func (l *level) find(block uint64) (si, way int) {
	si = int(block & l.setMask)
	r := l.sets[si]
	if r == 0 {
		return si, -1
	}
	set := l.ways(r)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return si, i
		}
	}
	return si, -1
}

// set returns set si for writing: an owned set as it is, any other copied
// into an owned slot first (an empty set's ways start invalid).
func (l *level) set(si int) []line {
	r := l.sets[si]
	if r > l.ownBase {
		return l.ways(r)
	}
	if l.own == len(l.slabs) || l.used == 1<<slabShift {
		l.slabs = append(l.slabs, make([]line, l.assoc<<slabShift))
		l.used = 0
	}
	nr := uint32((len(l.slabs)-1)<<slabShift+l.used) + 1
	l.used++
	set := l.ways(nr)
	if r != 0 {
		copy(set, l.ways(r))
	}
	l.sets[si] = nr
	return set
}

// victim picks an eviction slot in the set (invalid first, then LRU).
func victim(set []line) *line {
	best := &set[0]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lastUse < best.lastUse {
			best = &set[i]
		}
	}
	return best
}

func (l *level) pruneMSHRs(now int64) {
	keep := l.mshrs[:0]
	for _, e := range l.mshrs {
		if e.fillAt > now {
			keep = append(keep, e)
		}
	}
	l.mshrs = keep
}

// Hierarchy is the timing memory system: L1I and L1D backed by a unified L2
// and DRAM.
//
// Every timestamp inside a hierarchy (line fills and uses, MSHR and write
// buffer completions, DRAM channel time) is kept on its own clock, which
// runs off cycles ahead of the caller's: the entry points add off to the
// cycle they are given and subtract it from the cycles they return. A clone
// shares its source's timestamps and differs only in off.
type Hierarchy struct {
	cfg      HierConfig
	l1i, l1d *level
	l2       *level
	off      int64
	dramFree int64
	l1dPref  strideTable
	l2Pref   strideTable

	// DRAMAccesses counts line transfers to/from memory.
	DRAMAccesses uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1i: newLevel(cfg.L1I),
		l1d: newLevel(cfg.L1D),
		l2:  newLevel(cfg.L2),
	}
	h.l1dPref.entries = make([]strideEntry, max(1, cfg.L1DPrefetch.TableEntries))
	h.l2Pref.entries = make([]strideEntry, max(1, cfg.L2Prefetch.TableEntries))
	return h
}

// Stats returns the per-level counters (L1I, L1D, L2).
func (h *Hierarchy) Stats() (l1i, l1d, l2 CacheStats) {
	return h.l1i.stats, h.l1d.stats, h.l2.stats
}

// CloneAt returns an independent copy of the hierarchy's warm state — tags,
// MSHRs, write buffers, stride tables — whose clock reads 0 where h's reads
// now, with statistics counters reset. It is how the fast-functional tier's
// warm cache state seeds a detailed machine whose clock starts at zero:
// timestamps in the past become non-positive (complete), in-flight fills
// stay slightly in the future, and LRU ordering is preserved because the
// shift is the same for every line.
//
// The copy costs the set tables, not the tags: the clone shares every cache
// set with h copy-on-write (see level), and the clock shift is the clone's
// off. Cloning a hierarchy that owns no sets — a clone nothing has written
// since — does not modify it, so any number of goroutines may clone one
// checkpoint's hierarchy at once.
func (h *Hierarchy) CloneAt(now int64) *Hierarchy {
	at := now + h.off
	c := &Hierarchy{
		cfg:      h.cfg,
		l1i:      h.l1i.cloneAt(at),
		l1d:      h.l1d.cloneAt(at),
		l2:       h.l2.cloneAt(at),
		off:      at,
		dramFree: h.dramFree,
	}
	c.l1dPref.entries = append([]strideEntry(nil), h.l1dPref.entries...)
	c.l2Pref.entries = append([]strideEntry(nil), h.l2Pref.entries...)
	return c
}

// cloneAt returns a copy of the level sharing its sets, with stats reset and
// the MSHRs and write buffers that are still busy at clock time at.
func (l *level) cloneAt(at int64) *level {
	if l.own < len(l.slabs) {
		l.own = len(l.slabs)
		l.ownBase = uint32(l.own << slabShift)
	}
	n := len(l.slabs)
	c := &level{
		cfg:      l.cfg,
		sets:     append([]uint32(nil), l.sets...),
		slabs:    l.slabs[:n:n],
		own:      n,
		ownBase:  uint32(n << slabShift),
		assoc:    l.assoc,
		setMask:  l.setMask,
		lineBits: l.lineBits,
	}
	for _, e := range l.mshrs {
		if e.fillAt > at { // expired entries would be pruned anyway
			c.mshrs = append(c.mshrs, e)
		}
	}
	for _, t := range l.storeBusy {
		if t > at {
			c.storeBusy = append(c.storeBusy, t)
		}
	}
	return c
}

// Load models a demand data load issued at cycle `now` by the instruction at
// pc. It returns the completion cycle, or ok=false when the access must be
// replayed because the L1D MSHRs (or merge targets) are exhausted.
func (h *Hierarchy) Load(pc int, addr uint64, now int64) (done int64, ok bool) {
	now += h.off
	done, ok = h.access(h.l1d, addr, now, false)
	if !ok {
		return 0, false
	}
	h.stridePrefetch(&h.l1dPref, h.cfg.L1DPrefetch, h.l1d, uint64(pc), addr, now)
	return done - h.off, true
}

// Store models a demand store performed at cycle `now`. Stores complete into
// write buffers; the returned stall is the extra cycles the store pipeline
// must wait before accepting it (0 on hit or free buffer). ok=false means no
// buffer or MSHR is available and the drain must retry.
func (h *Hierarchy) Store(addr uint64, now int64) (stall int64, ok bool) {
	now += h.off
	l := h.l1d
	block := l.block(addr)
	if si, w := l.find(block); w >= 0 {
		ln := &l.set(si)[w]
		l.stats.Accesses++
		l.stats.Hits++
		if ln.prefetch {
			ln.prefetch = false
			l.stats.PrefetchUseful++
		}
		ln.lastUse = now
		// A store to an in-flight fill merges into the MSHR.
		ln.dirty = true
		return 0, true
	}
	// Write miss: needs a write buffer while the line is fetched for
	// ownership.
	busy := 0
	keep := l.storeBusy[:0]
	for _, t := range l.storeBusy {
		if t > now {
			keep = append(keep, t)
			busy++
		}
	}
	l.storeBusy = keep
	if busy >= l.cfg.WriteBuffers {
		return 0, false
	}
	done, ok := h.access(l, addr, now, true)
	if !ok {
		return 0, false
	}
	l.storeBusy = append(l.storeBusy, done)
	return 0, true
}

// Fetch models an instruction fetch of the line containing byte address
// addr. It returns the completion cycle; instruction fetches always succeed
// (front ends stall rather than replay).
func (h *Hierarchy) Fetch(addr uint64, now int64) int64 {
	now += h.off
	done, ok := h.access(h.l1i, addr, now, false)
	if !ok {
		// Out of MSHRs: serialise after the oldest outstanding fill.
		oldest := now
		for _, e := range h.l1i.mshrs {
			if e.fillAt > oldest {
				oldest = e.fillAt
			}
		}
		done = oldest + h.l1i.cfg.HitLatency
	}
	return done - h.off
}

// access runs the generic lookup/miss path for one level backed by L2/DRAM.
// Like every method below it, it works on the hierarchy's own clock.
func (h *Hierarchy) access(l *level, addr uint64, now int64, isStore bool) (int64, bool) {
	l.stats.Accesses++
	block := l.block(addr)
	if si, w := l.find(block); w >= 0 {
		ln := &l.set(si)[w]
		ln.lastUse = now
		if ln.prefetch {
			ln.prefetch = false
			l.stats.PrefetchUseful++
		}
		if isStore {
			ln.dirty = true
		}
		if ln.readyAt > now {
			// Hit on an in-flight fill: an MSHR target.
			l.stats.MSHRMergeHits++
			return ln.readyAt + l.cfg.HitLatency, true
		}
		l.stats.Hits++
		return now + l.cfg.HitLatency, true
	}
	l.stats.Misses++
	l.pruneMSHRs(now)
	if len(l.mshrs) >= l.cfg.MSHRs {
		l.stats.MSHRStalls++
		return 0, false
	}
	fill := h.fillFrom(l, addr, now)
	l.mshrs = append(l.mshrs, mshrEntry{block: block, fillAt: fill})
	h.insert(l, block, fill, isStore, false, now)
	return fill + l.cfg.HitLatency, true
}

// fillFrom fetches a line for l from the next level down.
func (h *Hierarchy) fillFrom(l *level, addr uint64, now int64) int64 {
	if l == h.l2 {
		return h.dram(now)
	}
	// L1 miss goes to L2.
	done, ok := h.access(h.l2, addr, now, false)
	if !ok {
		// L2 MSHRs exhausted: serialise behind DRAM.
		done = h.dram(now) + h.l2.cfg.HitLatency
	}
	if h.cfg.L2Prefetch.Degree > 0 {
		h.stridePrefetch(&h.l2Pref, h.cfg.L2Prefetch, h.l2, addr>>h.l2.lineBits>>4, addr, now)
	}
	if h.cfg.L2NextLine {
		h.prefetchLine(h.l2, addr+uint64(h.l2.cfg.LineBytes), now)
	}
	return done
}

func (h *Hierarchy) dram(now int64) int64 {
	h.DRAMAccesses++
	start := now
	if h.dramFree > start {
		start = h.dramFree
	}
	h.dramFree = start + h.cfg.DRAMCyclesPerLine
	return start + h.cfg.DRAMLatency
}

// insert places a (possibly in-flight) line into the tags, handling
// eviction/writeback.
func (h *Hierarchy) insert(l *level, block uint64, readyAt int64, dirty, prefetch bool, now int64) {
	v := victim(l.set(int(block & l.setMask)))
	if v.valid && v.dirty {
		l.stats.Writebacks++
		if l == h.l2 {
			// L2 writebacks consume DRAM channel time.
			h.dram(now)
		}
		// L1 writebacks land in L2, which is modelled as always accepting.
	}
	*v = line{tag: block, valid: true, dirty: dirty, prefetch: prefetch, lastUse: now, readyAt: readyAt}
}

// prefetchLine issues a prefetch fill into level l if the line is absent.
func (h *Hierarchy) prefetchLine(l *level, addr uint64, now int64) {
	block := l.block(addr)
	if _, w := l.find(block); w >= 0 {
		return
	}
	l.pruneMSHRs(now)
	if len(l.mshrs) >= l.cfg.MSHRs {
		return // prefetches are dropped, never stalled
	}
	var fill int64
	if l == h.l2 {
		fill = h.dram(now)
	} else {
		done, ok := h.access(h.l2, addr, now, false)
		if !ok {
			return
		}
		fill = done
	}
	l.mshrs = append(l.mshrs, mshrEntry{block: block, fillAt: fill})
	h.insert(l, block, fill, false, true, now)
	l.stats.PrefetchIssued++
}

// stridePrefetch trains the stride table with a demand access and issues
// prefetches `degree` strides ahead once confident.
func (h *Hierarchy) stridePrefetch(t *strideTable, cfg StrideConfig, l *level, key, addr uint64, now int64) {
	if cfg.Degree == 0 {
		return
	}
	e := &t.entries[key%uint64(len(t.entries))]
	if !e.valid || e.key != key {
		*e = strideEntry{key: key, last: addr, valid: true}
		return
	}
	delta := int64(addr) - int64(e.last)
	e.last = addr
	if delta == 0 {
		return
	}
	if delta == e.delta {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.delta = delta
		e.conf = 0
		return
	}
	if e.conf < 2 {
		return
	}
	for d := 1; d <= cfg.Degree; d++ {
		h.prefetchLine(l, uint64(int64(addr)+e.delta*int64(d)), now)
	}
}

// Snoop models an external coherence request for the line containing addr.
// If invalidate is set the line is dropped from L1D and L2 (a remote write);
// otherwise a dirty copy is merely downgraded. It reports whether any level
// held the line.
func (h *Hierarchy) Snoop(addr uint64, invalidate bool) bool {
	held := false
	for _, l := range []*level{h.l1d, h.l2} {
		if si, w := l.find(l.block(addr)); w >= 0 {
			ln := &l.set(si)[w]
			held = true
			l.stats.SnoopInvalidate++
			if invalidate {
				ln.valid = false
			} else {
				ln.dirty = false
			}
		}
	}
	return held
}

// Contains reports whether the L1D currently holds the line with addr, for
// tests and prefetch-effect analysis. It writes nothing.
func (h *Hierarchy) Contains(addr uint64) bool {
	_, w := h.l1d.find(h.l1d.block(addr))
	return w >= 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
