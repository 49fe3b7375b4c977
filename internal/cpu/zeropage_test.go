package cpu

import (
	"testing"

	"loopfrog/internal/asm"
)

// TestZeroDataPagesNotBuilt loads a program whose data segment is 16 pages
// of zeros between two nonzero words: only the two pages holding those
// words are built at load, and the hinted loop that reads and writes the
// zero pages still ends in the reference interpreter's state, on the
// baseline and on LoopFrog.
func TestZeroDataPagesNotBuilt(t *testing.T) {
	prog := asm.MustAssemble("zeropages", `
        .data
head:   .quad 5, 7
buf:    .zero 65536
tail:   .quad 9
        .text
main:   la   t0, buf
        la   a2, head
        ld   t4, 0(a2)
        la   a3, tail
        ld   t6, 0(a3)
        li   t1, 0
        li   t2, 512
loop:   detach cont
        ld   a0, 0(t0)
        add  a0, a0, t4
        add  a0, a0, t1
        sd   a0, 0(t0)
        reattach cont
cont:   addi t0, t0, 128
        addi t1, t1, 1
        blt  t1, t2, loop
        sync cont
        add  a1, t6, t4
        halt
`)
	if prog.Data.Len() < 16<<12 {
		t.Fatalf("data segment is %d bytes, want at least 16 pages", prog.Data.Len())
	}
	for _, cfg := range []Config{BaselineConfig(), DefaultConfig()} {
		m, err := NewMachine(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Memory().Footprint(); got != 2 {
			t.Errorf("%d pages built at load, want 2 (the pages holding head and tail)", got)
		}
		st := runMachine(t, cfg, prog)
		if st.ArchInsts == 0 {
			t.Fatal("nothing committed")
		}
	}
}
