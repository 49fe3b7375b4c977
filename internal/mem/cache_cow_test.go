package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// deepCloneAt is CloneAt without sharing: every set is copied into the
// clone's own slabs with its timestamps rebased so that now becomes cycle 0,
// on a hierarchy whose clock offset is 0. It is the reference the
// copy-on-write clone must behave like.
func deepCloneAt(h *Hierarchy, now int64) *Hierarchy {
	at := now + h.off
	c := NewHierarchy(h.cfg)
	for i, l := range []*level{h.l1i, h.l1d, h.l2} {
		cl := []*level{c.l1i, c.l1d, c.l2}[i]
		for si, r := range l.sets {
			if r == 0 {
				continue
			}
			set := cl.set(si)
			copy(set, l.ways(r))
			for w := range set {
				set[w].lastUse -= at
				set[w].readyAt -= at
			}
		}
		for _, e := range l.mshrs {
			if e.fillAt > at {
				e.fillAt -= at
				cl.mshrs = append(cl.mshrs, e)
			}
		}
		for _, t := range l.storeBusy {
			if t > at {
				cl.storeBusy = append(cl.storeBusy, t-at)
			}
		}
	}
	c.dramFree = h.dramFree - at
	copy(c.l1dPref.entries, h.l1dPref.entries)
	copy(c.l2Pref.entries, h.l2Pref.entries)
	return c
}

// snapshot copies every byte of h's state, slabs included, so that a later
// write through any hierarchy sharing h's sets shows up as a difference.
func snapshot(h *Hierarchy) *Hierarchy {
	c := *h
	for _, lp := range []**level{&c.l1i, &c.l1d, &c.l2} {
		l := **lp
		l.sets = slices.Clone(l.sets)
		l.slabs = slices.Clone(l.slabs)
		for i := range l.slabs {
			l.slabs[i] = slices.Clone(l.slabs[i])
		}
		l.mshrs = slices.Clone(l.mshrs)
		l.storeBusy = slices.Clone(l.storeBusy)
		*lp = &l
	}
	c.l1dPref.entries = slices.Clone(c.l1dPref.entries)
	c.l2Pref.entries = slices.Clone(c.l2Pref.entries)
	return &c
}

// hierOp is one access of a random stream.
type hierOp struct {
	kind int // 0-4 load, 5-7 store, 8 fetch, 9 snoop
	pc   int
	addr uint64
	dt   int64
	inv  bool
}

// randomOps mixes a hot 64 KiB region, per-PC strided streams (which train
// the prefetchers) and accesses spread over 16 MiB (which fill and evict
// L2 sets).
func randomOps(rng *rand.Rand, n int) []hierOp {
	ops := make([]hierOp, n)
	strideBase := [8]uint64{}
	for i := range strideBase {
		strideBase[i] = uint64(rng.Int63n(16 << 20))
	}
	for i := range ops {
		o := hierOp{kind: rng.Intn(10), pc: rng.Intn(8), dt: rng.Int63n(4), inv: rng.Intn(2) == 0}
		switch r := rng.Intn(10); {
		case r < 5:
			o.addr = uint64(rng.Int63n(64 << 10))
		case r < 8:
			strideBase[o.pc] += uint64(64 * (o.pc + 1))
			o.addr = strideBase[o.pc] % (16 << 20)
		default:
			o.addr = uint64(rng.Int63n(16 << 20))
		}
		ops[i] = o
	}
	return ops
}

// drive runs ops on h from cycle start and returns every outcome and the
// cycle it stopped at.
func drive(h *Hierarchy, ops []hierOp, start int64) ([]int64, int64) {
	out := make([]int64, 0, 2*len(ops))
	now := start
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	for _, o := range ops {
		now += o.dt
		switch {
		case o.kind < 5:
			done, ok := h.Load(o.pc, o.addr, now)
			out = append(out, done, b(ok))
		case o.kind < 8:
			stall, ok := h.Store(o.addr, now)
			out = append(out, stall, b(ok))
		case o.kind == 8:
			out = append(out, h.Fetch(o.addr, now), b(h.Contains(o.addr)))
		default:
			out = append(out, b(h.Snoop(o.addr, o.inv)), 0)
		}
	}
	return out, now
}

// sameRun drives a and b with the same stream from the same cycle and
// requires equal outcomes, stats and DRAM traffic.
func sameRun(t *testing.T, what string, a, b *Hierarchy, ops []hierOp, start int64) int64 {
	t.Helper()
	ga, end := drive(a, ops, start)
	gb, _ := drive(b, ops, start)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("%s: op %d (%+v): clone gives %d, deep copy %d", what, i/2, ops[i/2], ga[i], gb[i])
		}
	}
	sa := fmt.Sprint(a.Stats())
	if sb := fmt.Sprint(b.Stats()); sa != sb || a.DRAMAccesses != b.DRAMAccesses {
		t.Fatalf("%s: stats differ:\nclone %s dram %d\ndeep  %s dram %d", what, sa, a.DRAMAccesses, sb, b.DRAMAccesses)
	}
	return end
}

// TestHierarchyCOWMatchesDeepCopy checks the copy-on-write cache sets and
// the clone clock offset against deep copies with rebased timestamps, on
// seeded random Load/Store/Fetch/Snoop streams: a clone of a warm source
// the source goes on writing, a clone of that clone at a nonzero cycle
// while its parent goes on writing, and clones of a hierarchy that owns no
// sets, which must leave it unchanged byte for byte.
func TestHierarchyCOWMatchesDeepCopy(t *testing.T) {
	const n = 30_000
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src := NewHierarchy(DefaultHierConfig())
			_, now := drive(src, randomOps(rng, n), 0)

			c1, r1 := src.CloneAt(now), deepCloneAt(src, now)
			drive(src, randomOps(rng, n), now) // the source writes after cloning
			end := sameRun(t, "clone", c1, r1, randomOps(rng, n), 0)

			at := end - rng.Int63n(500) // MSHRs and write buffers still busy
			c2, r2 := c1.CloneAt(at), deepCloneAt(r1, at)
			sameRun(t, "clone's parent after the clone", c1, r1, randomOps(rng, n), end)
			end = sameRun(t, "clone of a clone", c2, r2, randomOps(rng, n), 0)

			idle := c2.CloneAt(end) // owns no sets
			before := snapshot(idle)
			k1, k2 := idle.CloneAt(0), idle.CloneAt(37)
			if !reflect.DeepEqual(idle, before) {
				t.Fatal("cloning a hierarchy that owns no sets modified it")
			}
			rk := deepCloneAt(idle, 37)
			drive(k1, randomOps(rng, n), 0)
			sameRun(t, "clone of an idle hierarchy", k2, rk, randomOps(rng, n), 0)
			if !reflect.DeepEqual(idle, before) {
				t.Fatal("writes to clones reached a hierarchy that owns no sets")
			}
		})
	}
}
