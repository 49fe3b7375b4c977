package fault

import (
	"testing"

	"loopfrog/internal/cpu"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		spec string
		bad  bool
	}{
		{spec: ""},
		{spec: "none"},
		{spec: "all"},
		{spec: "conflict"},
		{spec: "kill=0.001,overflow"},
		{spec: "all,kill=0.01"},
		{spec: "conflict-miss=1"},
		{spec: "bogus", bad: true},
		{spec: "kill=0", bad: true},
		{spec: "kill=1.5", bad: true},
		{spec: "kill=x", bad: true},
		{spec: "all=0.5", bad: true},
		{spec: ",", bad: true},
	} {
		p, err := Parse(tc.spec, 1)
		if tc.bad {
			if err == nil {
				t.Errorf("Parse(%q): want error, got %v", tc.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
		}
		if (tc.spec == "" || tc.spec == "none") != (p == nil) {
			t.Errorf("Parse(%q): nil-plan mismatch (%v)", tc.spec, p)
		}
	}
	p := MustParse("all,kill=0.25", 7)
	for _, k := range SafeKinds() {
		if !p.Active(k) {
			t.Errorf("all: kind %s inactive", k)
		}
	}
	if p.Active(ConflictMiss) || p.Active(PanicKind) {
		t.Error("all must not enable conflict-miss or panic")
	}
	if p.prob[Kill] != 0.25 {
		t.Errorf("override after all: kill prob = %v, want 0.25", p.prob[Kill])
	}
}

// TestPlanImplementsInjector pins the structural contract with the cpu
// package: a *Plan must satisfy cpu.FaultInjector.
func TestPlanImplementsInjector(t *testing.T) {
	var _ cpu.FaultInjector = MustParse("all", 1)
}
