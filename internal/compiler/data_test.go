package compiler

import (
	"runtime"
	"testing"
)

// TestZeroGlobalCostsNoBytes checks that an 8 MiB zero-initialised global
// costs its size only: compiling a program that holds one allocates well
// under the array's bytes, because the data segment stores no zeros
// (asm.DataImage).
func TestZeroGlobalCostsNoBytes(t *testing.T) {
	const src = `
var big: [1048576]int;
fn main() -> int {
    big[7] = 3;
    return big[7];
}`
	compile := func() {
		p, _, err := Compile("big", src)
		if err != nil {
			t.Fatal(err)
		}
		if n := p.Data.Len(); n < 8<<20 {
			t.Fatalf("data segment is %d bytes, want at least 8 MiB", n)
		}
	}
	compile() // warm anything built once per process
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	compile()
	runtime.ReadMemStats(&after)
	const limit = 64 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("compiling an 8 MiB zero global allocated %d KiB, want under %d KiB", got>>10, limit>>10)
	} else {
		t.Logf("compiling an 8 MiB zero global allocated %d KiB", got>>10)
	}
}
