package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cycles.json from this build")

const goldenCyclesFile = "testdata/golden_cycles.json"

// goldenRun is the pinned outcome of one detailed run.
type goldenRun struct {
	Cycles    int64  `json:"cycles"`
	ArchInsts uint64 `json:"arch_insts"`
}

// goldenAB is one program's baseline and LoopFrog outcome.
type goldenAB struct {
	Base goldenRun `json:"base"`
	LF   goldenRun `json:"lf"`
}

// TestSuiteGoldenCycles pins the exact baseline and LoopFrog cycle and
// instruction counts of every CPU2017 and CPU2006 program under the default
// configuration. Host-speed work on the detailed core (allocation, data
// layout, sorting) must leave every number unchanged; a change that means to
// alter simulated timing regenerates the file with -update-golden and says
// why.
func TestSuiteGoldenCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole CPU2017 and CPU2006 suites")
	}
	if raceEnabled {
		// Cycle counts gain nothing from the race detector, which makes the
		// suite runs several times slower: the package's race run would
		// approach the default test timeout.
		t.Skip("exact cycles are checked without -race")
	}
	suites := []struct {
		name  string
		progs []*workloads.Benchmark
	}{
		{"2017", workloads.CPU2017()},
		{"2006", workloads.CPU2006()},
	}
	h := NewHarness()
	got := map[string]goldenAB{}
	for _, s := range suites {
		res, err := h.RunSuite(cpu.DefaultConfig(), s.progs)
		if err != nil {
			t.Fatalf("%s suite: %v", s.name, err)
		}
		for _, r := range res {
			got[s.name+"/"+r.Bench.Name] = goldenAB{
				Base: goldenRun{Cycles: r.Base.Cycles, ArchInsts: r.Base.ArchInsts},
				LF:   goldenRun{Cycles: r.LF.Cycles, ArchInsts: r.LF.ArchInsts},
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCyclesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCyclesFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenCyclesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenAB
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d programs, the suites have %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: in the golden file but not in the suites", name)
		case g != w:
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}
