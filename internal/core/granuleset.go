// Package core implements LoopFrog's microarchitectural contribution from
// §4 of the paper: the Speculative State Buffer (SSB), the granule-level
// conflict detector, the iteration-packing predictors, and the dynamic
// region monitor. The out-of-order pipeline in internal/cpu composes these
// into the full LoopFrog machine.
package core

import "math"

// GranuleSet tracks a set of granule IDs (addresses right-shifted by the
// granule size). The conflict detector keeps one read set and one write set
// per threadlet (§4.2). Two implementations exist: an exact set, which the
// paper's headline configuration idealises ("No false positives modeled"),
// and a Bloom filter matching the proposed hardware.
type GranuleSet interface {
	// Add inserts a granule.
	Add(g uint64)
	// Contains reports (possibly conservatively) whether g was inserted.
	Contains(g uint64) bool
	// Clear empties the set.
	Clear()
	// Len returns the number of inserted granules (insertions may exceed
	// distinct granules for the Bloom implementation).
	Len() int
}

// ExactSet is a precise granule set: no false positives, no false negatives.
// It is an open-addressed table with linear probing. Every slot records the
// generation it was filled in, and only slots of the current generation are
// members, so Clear empties the set by bumping the generation without
// touching the table, whatever size it grew to: the conflict detector clears
// two sets per threadlet at every epoch. The table doubles past 3/4 full and
// never shrinks, so it settles at the largest epoch footprint seen.
type ExactSet struct {
	slots []exactSlot
	shift uint // 64 - log2(len(slots)), for the multiplicative hash
	gen   uint32
	n     int
}

type exactSlot struct {
	g   uint64
	gen uint32
}

// exactSetBits sizes a new set's table: 1<<exactSetBits slots.
const exactSetBits = 6

// NewExactSet returns an empty exact set.
func NewExactSet() *ExactSet {
	return &ExactSet{slots: make([]exactSlot, 1<<exactSetBits), shift: 64 - exactSetBits, gen: 1}
}

// home returns g's first probe slot: Fibonacci hashing spreads runs of
// consecutive granules over the table.
func (s *ExactSet) home(g uint64) int { return int((g * 0x9e3779b97f4a7c15) >> s.shift) }

// Add implements GranuleSet.
func (s *ExactSet) Add(g uint64) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := s.home(g); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = exactSlot{g: g, gen: s.gen}
			s.n++
			return
		}
		if sl.g == g {
			return
		}
	}
}

// grow doubles the table and reinserts the current members.
func (s *ExactSet) grow() {
	old := s.slots
	s.slots = make([]exactSlot, 2*len(old))
	s.shift--
	s.n = 0
	for _, sl := range old {
		if sl.gen == s.gen {
			s.Add(sl.g)
		}
	}
}

// Contains implements GranuleSet.
func (s *ExactSet) Contains(g uint64) bool {
	mask := len(s.slots) - 1
	for i := s.home(g); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			return false
		}
		if sl.g == g {
			return true
		}
	}
}

// Clear implements GranuleSet.
func (s *ExactSet) Clear() {
	s.n = 0
	if s.gen == math.MaxUint32 {
		// The stamp would wrap onto slots still marked with old
		// generations: wipe them once and start over.
		clear(s.slots)
		s.gen = 0
	}
	s.gen++
}

// Len implements GranuleSet.
func (s *ExactSet) Len() int { return s.n }

// BloomSet is a Bloom-filter granule set as proposed for the hardware
// implementation (§4.2, after Swarm): false positives are possible (safe —
// they can only cause unnecessary squashes), false negatives are not.
type BloomSet struct {
	bits   []uint64
	mask   uint64
	hashes int
	n      int
}

// NewBloomSet returns a Bloom filter with the given number of bits (rounded
// up to a power of two, minimum 64) and hash functions.
func NewBloomSet(bits, hashes int) *BloomSet {
	size := 64
	for size < bits {
		size <<= 1
	}
	if hashes < 1 {
		hashes = 1
	}
	return &BloomSet{
		bits:   make([]uint64, size/64),
		mask:   uint64(size - 1),
		hashes: hashes,
	}
}

func (s *BloomSet) hash(g uint64, i int) uint64 {
	// Two independent mixes combined per Kirsch-Mitzenmacher.
	h1 := g * 0x9e3779b97f4a7c15
	h1 ^= h1 >> 32
	h2 := g*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9
	h2 ^= h2 >> 29
	return (h1 + uint64(i)*h2) & s.mask
}

// Add implements GranuleSet.
func (s *BloomSet) Add(g uint64) {
	for i := 0; i < s.hashes; i++ {
		b := s.hash(g, i)
		s.bits[b/64] |= 1 << (b % 64)
	}
	s.n++
}

// Contains implements GranuleSet.
func (s *BloomSet) Contains(g uint64) bool {
	for i := 0; i < s.hashes; i++ {
		b := s.hash(g, i)
		if s.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear implements GranuleSet.
func (s *BloomSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.n = 0
}

// Len implements GranuleSet.
func (s *BloomSet) Len() int { return s.n }
