package cpu

import (
	"testing"

	"loopfrog/internal/asm"
	"loopfrog/internal/workloads"
)

// TestRegionLedgerReconciles is the issue's acceptance check: on real suite
// workloads, under both the baseline and LoopFrog configurations, every
// per-region ledger total must reconcile exactly against its global counter —
// and every squash must have landed in a real region, never the outside
// bucket. The machines run directly (no reference cross-check — these suite
// kernels are exercised for their event volume, and correctness against the
// oracle is covered elsewhere on programs the run limits never truncate).
func TestRegionLedgerReconciles(t *testing.T) {
	for _, name := range []string{"mcf", "x264"} {
		b := workloads.ByName(workloads.CPU2017(), name)
		if b == nil {
			t.Fatalf("workload %s missing from CPU2017 suite", name)
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			cfg   Config
		}{
			{"baseline", BaselineConfig()},
			{"loopfrog", DefaultConfig()},
		} {
			t.Run(name+"/"+tc.label, func(t *testing.T) {
				m, err := NewMachine(tc.cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := st.ReconcileRegions(); err != nil {
					t.Fatalf("region ledgers do not reconcile: %v", err)
				}
				if tc.label == "loopfrog" && st.Spawns > 0 {
					var inRegion uint64
					for i := range st.Regions {
						if st.Regions[i].Region != RegionOutside {
							inRegion += st.Regions[i].Spawns
						}
					}
					if inRegion != st.Spawns {
						t.Errorf("only %d of %d spawns landed in real regions", inRegion, st.Spawns)
					}
				}
			})
		}
	}
}

// TestRegionLedgerSquashAttribution drives the guaranteed-conflict chain loop
// and checks every squash is charged to the loop's region, including the
// restart bookkeeping, with nothing leaking into the outside bucket.
func TestRegionLedgerSquashAttribution(t *testing.T) {
	src := `
        .data
arr:    .zero 8192
        .text
main:   la   a0, arr
        li   t0, 1
        li   t1, 512
        sd   t1, 0(a0)
loop:   slli t2, t0, 3
        add  t3, a0, t2
        detach cont
        ld   t4, -8(t3)
        addi t4, t4, 3
        sd   t4, 0(t3)
        reattach cont
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        li   t4, 0
        li   t2, 0
        li   t3, 0
        halt
`
	prog := asm.MustAssemble("chain", src)
	cfg := DefaultConfig()
	cfg.Pack.Enabled = false
	st := runMachine(t, cfg, prog)
	if st.SquashTotal() == 0 {
		t.Skip("workload produced no squashes; attribution untestable here")
	}
	if err := st.ReconcileRegions(); err != nil {
		t.Fatalf("region ledgers do not reconcile: %v", err)
	}
	var attributed uint64
	for i := range st.Regions {
		l := &st.Regions[i]
		if l.Region == RegionOutside {
			if n := l.SquashTotal(); n != 0 {
				t.Errorf("%d squashes leaked into the outside bucket", n)
			}
			continue
		}
		attributed += l.SquashTotal()
	}
	if attributed != st.SquashTotal() {
		t.Errorf("squashes attributed to regions %d != global %d", attributed, st.SquashTotal())
	}
}

// TestRegionLedgerHelpers covers the small derived accessors.
func TestRegionLedgerHelpers(t *testing.T) {
	l := RegionLedger{Region: 64}
	if got, n := l.DominantStall(); got != SlotExec || n != 0 {
		t.Errorf("empty ledger dominant stall = %v/%d, want exec-latency/0", got, n)
	}
	if l.PackAccuracy() != 1 {
		t.Errorf("no-verify pack accuracy = %v, want 1", l.PackAccuracy())
	}
	l.Slots[SlotFrontend] = 10
	l.Slots[SlotROBFull] = 25
	l.Slots[SlotRetiredArch] = 1000 // retired classes never count as stalls
	if got, n := l.DominantStall(); got != SlotROBFull || n != 25 {
		t.Errorf("dominant stall = %v/%d, want rob-full/25", got, n)
	}
	l.PackVerifies, l.PackMispredicts = 8, 2
	if acc := l.PackAccuracy(); acc != 0.75 {
		t.Errorf("pack accuracy = %v, want 0.75", acc)
	}
	l.Squashes[0], l.Squashes[2] = 3, 4
	if l.SquashTotal() != 7 {
		t.Errorf("squash total = %d, want 7", l.SquashTotal())
	}
	st := &Stats{Regions: []RegionLedger{l}}
	if st.RegionByID(64) == nil || st.RegionByID(99) != nil {
		t.Error("RegionByID lookup broken")
	}
}
