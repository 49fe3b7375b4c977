package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactSetBasics(t *testing.T) {
	s := NewExactSet()
	if s.Contains(5) || s.Len() != 0 {
		t.Error("fresh set not empty")
	}
	s.Add(5)
	s.Add(5)
	s.Add(7)
	if !s.Contains(5) || !s.Contains(7) || s.Contains(6) {
		t.Error("membership wrong")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
	s.Clear()
	if s.Contains(5) || s.Len() != 0 {
		t.Error("clear failed")
	}
}

// TestExactSetMatchesMap runs seeded random streams of Add, Contains, Clear
// and Len against a Go map. Granules are drawn from a small range, so adds
// repeat and probes hit, and from the whole 64-bit range; epochs grow the
// table well past its initial size. One set starts with its generation stamp
// next to the maximum, so its Clears wrap it.
func TestExactSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewExactSet()
		if seed%2 == 0 {
			s.gen = math.MaxUint32 - 2
		}
		want := make(map[uint64]bool)
		var added []uint64
		for epoch := 0; epoch < 40; epoch++ {
			size := 1 + rng.Intn(20<<exactSetBits)
			for op := 0; op < size; op++ {
				g := uint64(rng.Intn(4 * size))
				if rng.Intn(4) == 0 {
					g = rng.Uint64()
				}
				if rng.Intn(2) == 0 {
					s.Add(g)
					want[g] = true
					added = append(added, g)
				} else if s.Contains(g) != want[g] {
					t.Fatalf("seed %d epoch %d: Contains(%d) = %v, want %v", seed, epoch, g, !want[g], want[g])
				}
			}
			if s.Len() != len(want) {
				t.Fatalf("seed %d epoch %d: Len = %d, want %d", seed, epoch, s.Len(), len(want))
			}
			for _, g := range added {
				if !s.Contains(g) {
					t.Fatalf("seed %d epoch %d: added granule %d missing", seed, epoch, g)
				}
			}
			s.Clear()
			clear(want)
			for _, g := range added {
				if s.Contains(g) {
					t.Fatalf("seed %d epoch %d: granule %d survived Clear", seed, epoch, g)
				}
			}
			if s.Len() != 0 {
				t.Fatalf("seed %d epoch %d: Len = %d after Clear", seed, epoch, s.Len())
			}
			added = added[:0]
		}
		if len(s.slots) <= 1<<exactSetBits {
			t.Errorf("seed %d: table never grew past %d slots", seed, 1<<exactSetBits)
		}
		if seed%2 == 0 && s.gen > 100 {
			t.Errorf("seed %d: generation %d did not wrap", seed, s.gen)
		}
	}
}

func TestBloomSetNoFalseNegatives(t *testing.T) {
	f := func(granules []uint64) bool {
		s := NewBloomSet(4096, 4)
		for _, g := range granules {
			s.Add(g)
		}
		for _, g := range granules {
			if !s.Contains(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBloomSetFalsePositiveRateReasonable(t *testing.T) {
	s := NewBloomSet(4096, 4)
	rng := rand.New(rand.NewSource(3))
	inserted := make(map[uint64]bool)
	for i := 0; i < 128; i++ { // well under capacity
		g := rng.Uint64()
		s.Add(g)
		inserted[g] = true
	}
	fp := 0
	const probes = 10_000
	for i := 0; i < probes; i++ {
		g := rng.Uint64()
		if inserted[g] {
			continue
		}
		if s.Contains(g) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %.3f too high for 128 entries in 4096 bits", rate)
	}
}

func TestBloomSetClear(t *testing.T) {
	s := NewBloomSet(256, 2)
	s.Add(42)
	s.Clear()
	if s.Contains(42) {
		t.Error("clear left bits set")
	}
	if s.Len() != 0 {
		t.Error("clear did not reset count")
	}
}

func TestBloomSetSizeRounding(t *testing.T) {
	// 100 bits rounds up to 128; zero hashes becomes one.
	s := NewBloomSet(100, 0)
	s.Add(1)
	if !s.Contains(1) {
		t.Error("degenerate config broken")
	}
}
