package cpu

// Per-region speculation attribution. The machine charges every hint-flow
// event (detach, spawn, squash, restart, retire, promote, pack verification)
// and every commit-bandwidth slot to the ledger of the epoch region it
// belongs to, alongside the existing global counters. The ledger totals
// reconcile *exactly* with the global counters — the same invariant the
// commit-slot stall attributor enforces — so a per-loop profitability report
// is a direct output of the run rather than a quantity estimated after the
// fact (ReconcileRegions is the checked form).
//
// Attribution rules:
//
//   - Hint-site counters (Detaches, Spawns, PackedSpawns, DetachNoContext)
//     charge the region named by the hint.
//   - Squash counters charge the victim threadlet's home region — the region
//     the epoch was spawned for, which survives a speculative sync loop exit
//     clearing the active region — so every squash lands in a real region.
//   - Retires charge the retiring architectural epoch's region; Promotes and
//     SpecWon charge the promoted successor's home region.
//   - Retired commit slots charge the committing instruction's dispatch
//     region; idle (stall) slots charge the architectural threadlet's active
//     region, since its progress is the program's. Region -1 collects
//     everything outside any region.

import (
	"errors"
	"fmt"

	"loopfrog/internal/core"
)

// RegionOutside is the pseudo-region ID collecting commit slots spent
// outside any epoch region.
const RegionOutside int64 = -1

// regionNone is the ledger-cache sentinel: no region ID ever takes this
// value (region IDs are continuation PCs, or RegionOutside).
const regionNone = int64(-1) << 62

// RegionLedger accumulates one region's speculation attribution. All
// counters are exact (never sampled); see the package comment above for what
// charges where and ReconcileRegions for the invariants.
type RegionLedger struct {
	// Region is the region ID (the continuation address the detach names),
	// or RegionOutside for the outside-any-region bucket.
	Region int64 `json:"region"`

	// Hint-site flow.
	Detaches        uint64 `json:"detaches"`
	Spawns          uint64 `json:"spawns"`
	PackedSpawns    uint64 `json:"packed_spawns"`
	DetachNoContext uint64 `json:"detach_no_context"`

	// Epoch outcomes.
	Retires  uint64 `json:"retires"`  // epochs retired while architectural
	Promotes uint64 `json:"promotes"` // speculative epochs promoted to architectural
	Restarts uint64 `json:"restarts"` // squash-and-restart recoveries

	// Squashes by cause, same layout as Stats.Squashes (core.SquashCause).
	Squashes [core.NumSquashCauses]uint64 `json:"squashes"`

	// Speculative instructions won and lost: SpecWon counts speculative
	// commits that reached architectural state at promotion, SpecLost counts
	// speculative commits discarded by squashes.
	SpecWon  uint64 `json:"spec_won"`
	SpecLost uint64 `json:"spec_lost"`

	// Iteration-packing accuracy (§4.3) at this region's verification points.
	PackVerifies    uint64 `json:"pack_verifies"`
	PackMispredicts uint64 `json:"pack_mispredicts"`
	PackRepairs     uint64 `json:"pack_repairs"`

	// Leaks counts confirmed speculative leaks (spectre.go) whose accessing
	// load dispatched in this region; the outside bucket collects wrong-path
	// leaks in straight-line code. Zero unless Config.SpectreAnalysis.
	Leaks uint64 `json:"leaks"`

	// Slots restricts the commit-slot attribution (stall.go) to this region;
	// summed across regions each class equals Stats.CommitSlots.
	Slots [NumSlotClasses]uint64 `json:"slots"`
}

// SquashTotal sums the squashes across causes.
func (l *RegionLedger) SquashTotal() uint64 {
	var n uint64
	for _, c := range l.Squashes {
		n += c
	}
	return n
}

// DominantStall returns the stall class holding the most of this region's
// non-retired slots, and its count. Returns (SlotExec, 0) when the region
// has no stall slots at all.
func (l *RegionLedger) DominantStall() (SlotClass, uint64) {
	best, bestN := SlotExec, uint64(0)
	for c := SlotClass(0); int(c) < NumSlotClasses; c++ {
		if c == SlotRetiredArch || c == SlotRetiredSpec {
			continue
		}
		if l.Slots[c] > bestN {
			best, bestN = c, l.Slots[c]
		}
	}
	return best, bestN
}

// PackAccuracy returns the fraction of pack verifications that passed, or 1
// when the region never verified.
func (l *RegionLedger) PackAccuracy() float64 {
	if l.PackVerifies == 0 {
		return 1
	}
	return 1 - float64(l.PackMispredicts)/float64(l.PackVerifies)
}

// ledger returns the ledger for region, creating it on first touch. The
// returned pointer is invalidated by the next ledger call (the backing slice
// may grow); callers charge it immediately and do not retain it. A one-entry
// cache makes the hot per-instruction and per-cycle charges a single compare
// in the common case.
func (m *Machine) ledger(region int64) *RegionLedger {
	if region != m.lastRegionID {
		idx, ok := m.regionIdx[region]
		if !ok {
			idx = len(m.stats.Regions)
			m.stats.Regions = append(m.stats.Regions, RegionLedger{Region: region})
			m.regionIdx[region] = idx
		}
		m.lastRegionID = region
		m.lastRegionIdx = idx
	}
	return &m.stats.Regions[m.lastRegionIdx]
}

// SquashTotal sums the run's squashes across causes.
func (s *Stats) SquashTotal() uint64 {
	var n uint64
	for _, c := range s.Squashes {
		n += c
	}
	return n
}

// RegionByID returns the ledger recorded for a region ID, or nil.
func (s *Stats) RegionByID(id int64) *RegionLedger {
	for i := range s.Regions {
		if s.Regions[i].Region == id {
			return &s.Regions[i]
		}
	}
	return nil
}

// ReconcileRegions checks every per-region ledger total against its global
// counter and returns a joined error describing all mismatches, or nil when
// the attribution is exact. It also enforces that the outside-region bucket
// holds nothing but commit slots: every spawn, squash, retire, promotion and
// pack event must have landed in a real region. Call it on the Stats of a
// completed run; Stats that carry no ledgers fail with a distinguishable
// error.
func (s *Stats) ReconcileRegions() error {
	if len(s.Regions) == 0 {
		return errors.New("cpu: no region ledgers recorded")
	}
	var sum RegionLedger
	var errs []error
	for i := range s.Regions {
		l := &s.Regions[i]
		sum.Detaches += l.Detaches
		sum.Spawns += l.Spawns
		sum.PackedSpawns += l.PackedSpawns
		sum.DetachNoContext += l.DetachNoContext
		sum.Retires += l.Retires
		sum.Promotes += l.Promotes
		sum.PackRepairs += l.PackRepairs
		sum.SpecWon += l.SpecWon
		sum.SpecLost += l.SpecLost
		sum.Leaks += l.Leaks
		for c := range l.Squashes {
			sum.Squashes[c] += l.Squashes[c]
		}
		for c := range l.Slots {
			sum.Slots[c] += l.Slots[c]
		}
		if l.Region == RegionOutside {
			if n := l.Detaches + l.Spawns + l.Retires + l.Promotes + l.Restarts +
				l.SquashTotal() + l.SpecWon + l.SpecLost + l.PackVerifies; n != 0 {
				errs = append(errs, fmt.Errorf("outside-region bucket holds %d non-slot events", n))
			}
		}
	}
	check := func(name string, got, want uint64) {
		if got != want {
			errs = append(errs, fmt.Errorf("region %s sum to %d, global counter is %d", name, got, want))
		}
	}
	check("Detaches", sum.Detaches, s.Detaches)
	check("Spawns", sum.Spawns, s.Spawns)
	check("PackedSpawns", sum.PackedSpawns, s.PackedSpawns)
	check("DetachNoContext", sum.DetachNoContext, s.DetachNoContext)
	check("Retires", sum.Retires, s.Retires)
	// Every retire promotes exactly one successor, so promoted epochs must
	// also sum to the retire count.
	check("Promotes", sum.Promotes, s.Retires)
	check("PackRepairs", sum.PackRepairs, s.PackRepairs)
	check("SpecWon", sum.SpecWon, s.SpecCommitCycleSum)
	check("SpecLost", sum.SpecLost, s.SpecCommitted)
	check("Leaks", sum.Leaks, s.Leaks)
	for c := range sum.Squashes {
		check("Squashes."+core.SquashCause(c).String(), sum.Squashes[c], s.Squashes[c])
	}
	for c := range sum.Slots {
		check("Slots."+SlotClass(c).String(), sum.Slots[c], s.CommitSlots[c])
	}
	return errors.Join(errs...)
}
