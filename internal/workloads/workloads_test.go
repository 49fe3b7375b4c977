package workloads

import (
	"testing"

	"loopfrog/internal/isa"
)

func TestSuitesWellFormed(t *testing.T) {
	for _, suite := range [][]*Benchmark{CPU2017(), CPU2006()} {
		names := map[string]bool{}
		for _, b := range suite {
			if names[b.Name] {
				t.Errorf("duplicate benchmark %q", b.Name)
			}
			names[b.Name] = true
			if b.SeqTimeRatio < 0 {
				t.Errorf("%s: negative sequential ratio", b.Name)
			}
			if b.Class == "" {
				t.Errorf("%s: missing class", b.Name)
			}
		}
	}
	if len(CPU2017()) != 20 {
		t.Errorf("CPU2017 has %d entries, want 20", len(CPU2017()))
	}
	if len(CPU2006()) < 25 {
		t.Errorf("CPU2006 has %d entries, want the (near-)full suite", len(CPU2006()))
	}
}

func TestProfitableNamesExist(t *testing.T) {
	suite := CPU2017()
	for name := range Profitable2017Names() {
		if ByName(suite, name) == nil {
			t.Errorf("profitable benchmark %q not in the suite", name)
		}
	}
}

// TestAnnotatedKernelsCarryHints compiles each 2017 stand-in and checks that
// the ones expected to parallelise actually carry all three hints with a
// consistent region ID.
func TestAnnotatedKernelsCarryHints(t *testing.T) {
	for _, b := range CPU2017() {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var det, rea, syn int
		for _, in := range prog.Insts {
			switch in.Op {
			case isa.DETACH:
				det++
			case isa.REATTACH:
				rea++
			case isa.SYNC:
				syn++
			}
		}
		if det == 0 || rea == 0 || syn == 0 {
			t.Errorf("%s: hints missing (%d/%d/%d)", b.Name, det, rea, syn)
		}
	}
}

func TestWithSerialPadInjects(t *testing.T) {
	src := `
fn main() -> int {
    var x: int = 1;
    return x;
}`
	padded := withSerialPad(src, 10)
	if padded == src {
		t.Fatal("pad not injected")
	}
	if withSerialPad(src, 0) != src {
		t.Error("zero pad modified the source")
	}
}

func TestByName(t *testing.T) {
	s := CPU2017()
	if ByName(s, "imagick") == nil {
		t.Error("imagick missing")
	}
	if ByName(s, "doesnotexist") != nil {
		t.Error("found a non-existent benchmark")
	}
}

// TestFindResolvesEverySuite checks the one name lookup every tool uses:
// each CPU2017, CPU2006 and Security benchmark resolves to itself, no name
// appears in two suites (so the search order cannot matter), and an unknown
// name resolves to nil.
func TestFindResolvesEverySuite(t *testing.T) {
	seen := map[string]string{}
	for _, suite := range [][]*Benchmark{CPU2017(), CPU2006(), Security()} {
		for _, b := range suite {
			if other, dup := seen[b.Name]; dup {
				t.Errorf("%q is in both %s and %s", b.Name, other, b.Suite)
			}
			seen[b.Name] = b.Suite
			got := Find(b.Name)
			if got == nil {
				t.Errorf("Find(%q) = nil", b.Name)
				continue
			}
			if got.Name != b.Name || got.Suite != b.Suite {
				t.Errorf("Find(%q) = %s/%s, want %s/%s", b.Name, got.Suite, got.Name, b.Suite, b.Name)
			}
		}
	}
	if b := Find("doesnotexist"); b != nil {
		t.Errorf("Find(doesnotexist) = %s/%s, want nil", b.Suite, b.Name)
	}
}

// TestFindSharesPrograms checks that Find hands out one shared Benchmark
// per name, so two lookups yield the same compiled program: a serve job
// that names a benchmark neither rebuilds the suites nor recompiles it.
func TestFindSharesPrograms(t *testing.T) {
	for _, name := range []string{"mcf", "gcc06", "boundsbypass"} {
		a, b := Find(name), Find(name)
		if a != b {
			t.Errorf("Find(%q) returned two Benchmarks", name)
			continue
		}
		pa, pb := a.MustProgram(), b.MustProgram()
		if pa != pb {
			t.Errorf("two Find(%q) calls yield different programs", name)
		}
	}
}
