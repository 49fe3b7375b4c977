package sim

// Per-region ledger aggregation across harness runs. A full detailed run
// carries exact ledgers in its Stats; a sampled run yields one ledger set per
// detailed window, each standing for its whole interval. The accumulator
// merges either kind: verbatim (Add) for exact runs, interval-weighted
// (AddScaled) for sampled windows — the same weighting EstCycles gives the
// window IPCs. Scaled merges are estimates by construction
// (counters are extrapolated from the measured slice and rounded), so
// cpu.Stats.ReconcileRegions applies to single exact runs only, never to a
// scaled aggregate.

import (
	"sort"

	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
)

// ledgerScalars is the number of scalar counters of one cpu.RegionLedger,
// ahead of the squash-cause and slot-class arrays in its flattened form.
const ledgerScalars = 12

// ledgerLen is the flattened counter count of one cpu.RegionLedger.
const ledgerLen = ledgerScalars + core.NumSquashCauses + cpu.NumSlotClasses

// ledgerVec flattens a ledger's counters into a fixed vector so merging is a
// single loop rather than per-field bookkeeping.
func ledgerVec(l *cpu.RegionLedger) (v [ledgerLen]float64) {
	for i, x := range [ledgerScalars]uint64{
		l.Detaches, l.Spawns, l.PackedSpawns, l.DetachNoContext,
		l.Retires, l.Promotes, l.Restarts, l.SpecWon, l.SpecLost,
		l.PackVerifies, l.PackMispredicts, l.PackRepairs,
	} {
		v[i] = float64(x)
	}
	for c, x := range l.Squashes {
		v[ledgerScalars+c] = float64(x)
	}
	for c, x := range l.Slots {
		v[ledgerScalars+core.NumSquashCauses+c] = float64(x)
	}
	return v
}

// vecLedger inverts ledgerVec, rounding each accumulated counter to the
// nearest integer.
func vecLedger(region int64, v *[ledgerLen]float64) cpu.RegionLedger {
	r := func(x float64) uint64 { return uint64(x + 0.5) }
	l := cpu.RegionLedger{
		Region:          region,
		Detaches:        r(v[0]),
		Spawns:          r(v[1]),
		PackedSpawns:    r(v[2]),
		DetachNoContext: r(v[3]),
		Retires:         r(v[4]),
		Promotes:        r(v[5]),
		Restarts:        r(v[6]),
		SpecWon:         r(v[7]),
		SpecLost:        r(v[8]),
		PackVerifies:    r(v[9]),
		PackMispredicts: r(v[10]),
		PackRepairs:     r(v[11]),
	}
	for c := 0; c < core.NumSquashCauses; c++ {
		l.Squashes[c] = r(v[ledgerScalars+c])
	}
	for c := 0; c < cpu.NumSlotClasses; c++ {
		l.Slots[c] = r(v[ledgerScalars+core.NumSquashCauses+c])
	}
	return l
}

// RegionAccumulator merges per-region speculation ledgers across runs or
// sampled windows, keyed by region ID. The zero value is ready to use; it is
// not safe for concurrent use.
type RegionAccumulator struct {
	idx  map[int64]int
	ids  []int64
	sums [][ledgerLen]float64
}

// Add merges one run's ledgers verbatim (weight 1).
func (a *RegionAccumulator) Add(regions []cpu.RegionLedger) { a.AddScaled(regions, 1) }

// AddScaled merges one ledger set with every counter weighted by scale — for
// a sampled window, interval-insts / window-simulated-insts, so the window's
// observed behaviour stands for its whole interval. A non-positive scale is
// ignored (a weightless terminal fragment).
func (a *RegionAccumulator) AddScaled(regions []cpu.RegionLedger, scale float64) {
	if scale <= 0 {
		return
	}
	for i := range regions {
		l := &regions[i]
		k, ok := a.idx[l.Region]
		if !ok {
			if a.idx == nil {
				a.idx = make(map[int64]int, 8)
			}
			k = len(a.sums)
			a.idx[l.Region] = k
			a.ids = append(a.ids, l.Region)
			a.sums = append(a.sums, [ledgerLen]float64{})
		}
		v := ledgerVec(l)
		sum := &a.sums[k]
		for j := range v {
			sum[j] += v[j] * scale
		}
	}
}

// Ledgers returns the merged ledgers sorted by region ID (the outside bucket,
// RegionOutside = -1, sorts first). Empty input yields nil.
func (a *RegionAccumulator) Ledgers() []cpu.RegionLedger {
	if len(a.ids) == 0 {
		return nil
	}
	ids := append([]int64(nil), a.ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]cpu.RegionLedger, 0, len(ids))
	for _, id := range ids {
		out = append(out, vecLedger(id, &a.sums[a.idx[id]]))
	}
	return out
}

// windowRegionScale returns the interval weight for one sampled window's
// ledgers: the interval instruction count the window stands for over the
// instructions the window actually simulated (warmup included — the ledger
// cannot separate warmup charges from measured ones, which is part of why a
// sampled aggregate is an estimate). Zero when the window is weightless.
func windowRegionScale(w WindowStat, st *cpu.Stats) float64 {
	denom := st.ArchInsts + st.EndLive
	if w.Insts == 0 || denom == 0 {
		return 0
	}
	return float64(w.Insts) / float64(denom)
}
