package asm

import (
	"strings"
	"testing"

	"loopfrog/internal/isa"
)

const sumLoop = `
        .data
arr:    .quad 1, 2, 3, 4
n:      .quad 4
        .text
main:   la   a0, arr
        la   t0, n
        ld   t0, 0(t0)      # trip count
        li   a1, 0          # sum
        li   t1, 0          # i
loop:   slli t2, t1, 3
        add  t2, a0, t2
        ld   t3, 0(t2)
        detach cont
        add  a1, a1, t3
        reattach cont
cont:   addi t1, t1, 1
        blt  t1, t0, loop
        sync cont
        halt
`

func TestAssembleSumLoop(t *testing.T) {
	p, err := Assemble("sum", sumLoop)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Entry != p.MustLabel("main") {
		t.Errorf("entry = %d, want main at %d", p.Entry, p.MustLabel("main"))
	}
	if got := p.Data.Len(); got != 40 {
		t.Errorf("data length = %d, want 40", got)
	}
	if addr := p.MustSymbol("arr"); addr != DefaultDataBase {
		t.Errorf("arr at %#x, want %#x", addr, DefaultDataBase)
	}
	if addr := p.MustSymbol("n"); addr != DefaultDataBase+32 {
		t.Errorf("n at %#x, want %#x", addr, DefaultDataBase+32)
	}
	cont := p.MustLabel("cont")
	var hints []isa.Inst
	for _, inst := range p.Insts {
		if isa.OpMeta(inst.Op).IsHint {
			hints = append(hints, inst)
		}
	}
	if len(hints) != 3 {
		t.Fatalf("found %d hints, want 3", len(hints))
	}
	for _, h := range hints {
		if h.Imm != int64(cont) {
			t.Errorf("hint %s targets %d, want cont at %d", h, h.Imm, cont)
		}
	}
	// The branch targets the loop head.
	loop := p.MustLabel("loop")
	found := false
	for _, inst := range p.Insts {
		if inst.Op == isa.BLT && inst.Imm == int64(loop) {
			found = true
		}
	}
	if !found {
		t.Error("blt does not target loop label")
	}
}

func TestAssemblePseudoOps(t *testing.T) {
	src := `
main:   mv   a0, a1
        not  a2, a3
        neg  a4, a5
        j    end
        call fn
        beqz a0, end
        bnez a0, end
        ble  a0, a1, end
        bgt  a0, a1, end
fn:     ret
end:    halt
`
	p, err := Assemble("pseudo", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	want := []isa.Inst{
		{Op: isa.ADDI, Rd: isa.X(10), Rs1: isa.X(11)},
		{Op: isa.XORI, Rd: isa.X(12), Rs1: isa.X(13), Imm: -1},
		{Op: isa.SUB, Rd: isa.X(14), Rs1: isa.X(0), Rs2: isa.X(15)},
		{Op: isa.JAL, Rd: isa.X(0), Imm: 10},
		{Op: isa.JAL, Rd: isa.X(1), Imm: 9},
		{Op: isa.BEQ, Rs1: isa.X(10), Rs2: isa.X(0), Imm: 10},
		{Op: isa.BNE, Rs1: isa.X(10), Rs2: isa.X(0), Imm: 10},
		{Op: isa.BGE, Rs1: isa.X(11), Rs2: isa.X(10), Imm: 10},
		{Op: isa.BLT, Rs1: isa.X(11), Rs2: isa.X(10), Imm: 10},
		{Op: isa.JALR, Rd: isa.X(0), Rs1: isa.X(1)},
		{Op: isa.HALT},
	}
	if len(p.Insts) != len(want) {
		t.Fatalf("got %d instructions, want %d\n%s", len(p.Insts), len(want), p.Disassemble())
	}
	for i := range want {
		if p.Insts[i] != want[i] {
			t.Errorf("inst %d = %+v, want %+v", i, p.Insts[i], want[i])
		}
	}
}

func TestAssembleDataDirectives(t *testing.T) {
	src := `
        .data
b:      .byte 1, 2, 0xff
        .align 4
h:      .half 0x1234
        .align 4
w:      .word -1
        .align 8
q:      .quad 0x123456789abcdef0
d:      .double 1.5
z:      .zero 3
        .align 8
end:    .byte 7
        .text
main:   halt
`
	p, err := Assemble("data", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	base := p.DataBase
	checks := map[string]uint64{"b": base, "h": base + 4, "w": base + 8, "q": base + 16, "d": base + 24, "z": base + 32}
	for sym, want := range checks {
		if got := p.MustSymbol(sym); got != want {
			t.Errorf("symbol %s at %#x, want %#x", sym, got, want)
		}
	}
	if got := p.MustSymbol("end"); got != base+40 {
		t.Errorf("end at %#x, want %#x (after .align 8)", got, base+40)
	}
	data := p.Data.Bytes()
	if data[0] != 1 || data[1] != 2 || data[2] != 0xff {
		t.Errorf(".byte payload wrong: % x", data[:3])
	}
	if data[4] != 0x34 || data[5] != 0x12 {
		t.Errorf(".half not little-endian: % x", data[4:6])
	}
	for i := 8; i < 12; i++ {
		if data[i] != 0xff {
			t.Errorf(".word -1 byte %d = %#x", i, data[i])
		}
	}
	if data[16] != 0xf0 || data[23] != 0x12 {
		t.Errorf(".quad payload wrong: % x", data[16:24])
	}
}

func TestAssembleBaseDirective(t *testing.T) {
	src := `
        .data
        .base 0x2000
v:      .quad 9
        .text
main:   la a0, v
        halt
`
	p, err := Assemble("base", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.DataBase != 0x2000 {
		t.Errorf("DataBase = %#x, want 0x2000", p.DataBase)
	}
	if p.Insts[0].Imm != 0x2000 {
		t.Errorf("la resolved to %#x, want 0x2000", p.Insts[0].Imm)
	}
}

func TestAssembleLaCodeLabel(t *testing.T) {
	// `la` falls back to code labels, giving function pointers for jalr.
	src := `
main:   la  t0, fn
        jalr ra, t0, 0
        halt
fn:     ret
`
	p, err := Assemble("fptr", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Insts[0].Imm != int64(p.MustLabel("fn")) {
		t.Errorf("la fn = %d, want %d", p.Insts[0].Imm, p.MustLabel("fn"))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown-mnemonic", "main: frobnicate a0, a1", "unknown mnemonic"},
		{"unknown-label", "main: j nowhere", `unknown label "nowhere"`},
		{"unknown-symbol", "main: la a0, nodata\nhalt", `unknown symbol "nodata"`},
		{"dup-label", "main: nop\nmain: nop", "duplicate label"},
		{"bad-register", "main: add a0, a1, q9", "bad register"},
		{"data-in-text", ".quad 4", "outside .data"},
		{"inst-in-data", ".data\nadd a0, a1, a2", "outside .text"},
		{"bad-directive", ".frob 1", "unknown directive"},
		{"bad-mem", "main: ld a0, a1", "bad memory operand"},
		{"wrong-arity", "main: add a0, a1", "wants rd, rs1, rs2"},
		{"bad-align", ".data\n.align 3", "power of two"},
		{"hint-imm", "main: detach 5", "wants a label"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.name, c.src)
			if err == nil {
				t.Fatalf("Assemble succeeded, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestAssembleCommentsAndBlankLines(t *testing.T) {
	src := `
# leading comment
main:           ; trailing comment style two
        nop     # comment after instruction

        halt
`
	p, err := Assemble("comments", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(p.Insts) != 2 {
		t.Errorf("got %d instructions, want 2", len(p.Insts))
	}
}

func TestBuilderMirrorsAssembler(t *testing.T) {
	b := NewBuilder("sum")
	b.Sym("arr").Quad(1, 2, 3, 4).Sym("n").Quad(4)
	b.Label("main").
		La(isa.X(10), "arr").
		La(isa.X(5), "n").
		Load(isa.LD, isa.X(5), isa.X(5), 0).
		Li(isa.X(11), 0).
		Li(isa.X(6), 0).
		Label("loop").
		OpImm(isa.SLLI, isa.X(7), isa.X(6), 3).
		Op(isa.ADD, isa.X(7), isa.X(10), isa.X(7)).
		Load(isa.LD, isa.X(28), isa.X(7), 0).
		Hint(isa.DETACH, "cont").
		Op(isa.ADD, isa.X(11), isa.X(11), isa.X(28)).
		Hint(isa.REATTACH, "cont").
		Label("cont").
		OpImm(isa.ADDI, isa.X(6), isa.X(6), 1).
		Branch(isa.BLT, isa.X(6), isa.X(5), "loop").
		Hint(isa.SYNC, "cont").
		Halt()
	built, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	asmP, err := Assemble("sum", sumLoop)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(built.Insts) != len(asmP.Insts) {
		t.Fatalf("builder emitted %d instructions, assembler %d", len(built.Insts), len(asmP.Insts))
	}
	for i := range built.Insts {
		if built.Insts[i] != asmP.Insts[i] {
			t.Errorf("inst %d: builder %+v != assembler %+v", i, built.Insts[i], asmP.Insts[i])
		}
	}
	if string(built.Data.Bytes()) != string(asmP.Data.Bytes()) {
		t.Errorf("data segments differ: % x vs % x", built.Data.Bytes(), asmP.Data.Bytes())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Jump(isa.X(0), "missing").Halt().Build(); err == nil {
		t.Error("Build with unresolved label succeeded")
	}
	if _, err := NewBuilder("x").Label("a").Label("a").Halt().Build(); err == nil {
		t.Error("Build with duplicate label succeeded")
	}
	if _, err := NewBuilder("x").Hint(isa.ADD, "l").Build(); err == nil {
		t.Error("Hint with non-hint opcode succeeded")
	}
	if _, err := NewBuilder("x").La(isa.X(1), "nosym").Halt().Build(); err == nil {
		t.Error("Build with unresolved symbol succeeded")
	}
}

func TestValidate(t *testing.T) {
	p := &Program{Insts: []isa.Inst{{Op: isa.BEQ, Imm: 99}}, Labels: map[string]int{}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range branch target")
	}
	p = &Program{Insts: []isa.Inst{{Op: isa.NOP}}, Entry: 5}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range entry")
	}
}

func TestDisassembleContainsLabels(t *testing.T) {
	p := MustAssemble("sum", sumLoop)
	dis := p.Disassemble()
	for _, label := range []string{"main:", "loop:", "cont:"} {
		if !strings.Contains(dis, label) {
			t.Errorf("disassembly missing %q", label)
		}
	}
	if !strings.Contains(dis, "detach") || !strings.Contains(dis, "reattach") || !strings.Contains(dis, "sync") {
		t.Error("disassembly missing hint mnemonics")
	}
}

func TestLineProvenance(t *testing.T) {
	p := MustAssemble("sum", sumLoop)
	if len(p.Lines) != len(p.Insts) {
		t.Fatalf("Lines length %d != Insts length %d", len(p.Lines), len(p.Insts))
	}
	// Every assembled instruction must carry a positive source line, and
	// lines must be non-decreasing (one instruction per source line).
	prev := 0
	for i := range p.Insts {
		line := p.LineOf(i)
		if line <= 0 {
			t.Fatalf("instruction %d has no source line", i)
		}
		if line < prev {
			t.Fatalf("instruction %d line %d goes backwards from %d", i, line, prev)
		}
		prev = line
	}
	if p.LineOf(-1) != 0 || p.LineOf(len(p.Insts)) != 0 {
		t.Error("LineOf out of range must return 0")
	}
}

func TestNearestLabel(t *testing.T) {
	p := MustAssemble("sum", sumLoop)
	loop := p.MustLabel("loop")
	if name, off, ok := p.NearestLabel(loop); !ok || name != "loop" || off != 0 {
		t.Errorf("NearestLabel(loop) = %q+%d,%v", name, off, ok)
	}
	if name, off, ok := p.NearestLabel(loop + 2); !ok || name != "loop" || off != 2 {
		t.Errorf("NearestLabel(loop+2) = %q+%d,%v", name, off, ok)
	}
	if name, _, ok := p.NearestLabel(0); !ok || name != "main" {
		t.Errorf("NearestLabel(0) = %q,%v", name, ok)
	}
	if _, _, ok := p.NearestLabel(-1); ok {
		t.Error("NearestLabel(-1) must not resolve")
	}
}

func TestBuilderLineProvenance(t *testing.T) {
	b := NewBuilder("lines")
	b.Label("main")
	b.Line(10).Li(isa.X(5), 1)
	b.Line(12).Li(isa.X(6), 2)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.LineOf(0); got != 10 {
		t.Errorf("LineOf(0) = %d, want 10", got)
	}
	if got := p.LineOf(1); got != 12 {
		t.Errorf("LineOf(1) = %d, want 12", got)
	}
	// Halt inherits the last Line() setting; builders that never call
	// Line produce no provenance at all.
	if got := p.LineOf(2); got != 12 {
		t.Errorf("LineOf(2) = %d, want 12", got)
	}
	p2 := NewBuilder("nolines").Halt().MustBuild()
	if p2.Lines != nil {
		t.Error("builder without Line() calls must not attach provenance")
	}
}
