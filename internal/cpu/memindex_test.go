package cpu

import (
	"testing"

	"loopfrog/internal/workloads"
)

// TestStoreIndexMatchesROB steps machines cycle by cycle and checks, after
// every cycle, that each live threadlet's store and load indexes list
// exactly its in-ROB stores and loads, oldest first, with the address and
// validity the instruction itself carries. In calculix and tonto an LSQ
// replay squashes stores and loads that still execute later in the same
// issue pass, after their records are gone.
func TestStoreIndexMatchesROB(t *testing.T) {
	if testing.Short() {
		t.Skip("steps four whole programs twice")
	}
	configs := []struct {
		name string
		cfg  Config
	}{{"baseline", BaselineConfig()}, {"loopfrog", DefaultConfig()}}
	for _, name := range []string{"calculix", "tonto", "mcf", "leela"} {
		prog := workloads.Find(name).MustProgram()
		for _, c := range configs {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				m, err := NewMachine(c.cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				const limit = 20_000_000
				for !m.halted && m.now < limit {
					m.cycle()
					for _, th := range m.threads {
						if th.live {
							checkMemIndex(t, m, th)
						}
					}
				}
				if !m.halted {
					t.Fatalf("run did not halt by cycle %d", m.now)
				}
			})
		}
	}
}

// checkMemIndex compares th's store and load indexes with its ROB.
func checkMemIndex(t *testing.T, m *Machine, th *threadlet) {
	t.Helper()
	stores, loads := th.stIdx.items(), th.ldIdx.items()
	for _, h := range th.rob.items() {
		e := m.at(h)
		var recs *[]memRec
		switch {
		case e.meta().IsStore:
			recs = &stores
		case e.meta().IsLoad:
			recs = &loads
		default:
			continue
		}
		if len(*recs) == 0 {
			t.Fatalf("cycle %d, threadlet %d: in-ROB memory op seq %d (pc %d) has no record", m.now, th.id, e.seq, e.pc)
		}
		r := (*recs)[0]
		*recs = (*recs)[1:]
		if r.e != h || r.seq != e.seq || r.size != e.memSize || r.valid != e.addrValid ||
			r.valid && r.addr != e.addr || r.fwdSeq != 0 && !e.loadFwdSQ {
			t.Fatalf("cycle %d, threadlet %d: record {seq %d addr %#x size %d valid %v fwd %d} for seq %d (pc %d, addr %#x, valid %v, forwarded %v)",
				m.now, th.id, r.seq, r.addr, r.size, r.valid, r.fwdSeq, e.seq, e.pc, e.addr, e.addrValid, e.loadFwdSQ)
		}
	}
	if len(stores)+len(loads) > 0 {
		t.Fatalf("cycle %d, threadlet %d: %d store and %d load records past the ROB", m.now, th.id, len(stores), len(loads))
	}
}
