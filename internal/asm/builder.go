package asm

import (
	"encoding/binary"
	"fmt"

	"loopfrog/internal/isa"
)

// Builder constructs program images programmatically. It is used by the
// compiler back end and by workload generators; labels are resolved when
// Build is called.
type Builder struct {
	name    string
	insts   []isa.Inst
	labels  map[string]int
	fixups  []fixup
	laFix   []fixup
	data    DataImage
	base    uint64
	symbols map[string]uint64
	err     error

	lines   []int
	curLine int
	hasLine bool
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		base:    DefaultDataBase,
		symbols: make(map[string]uint64),
	}
}

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.insts) }

// Label defines a code label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.setErr(fmt.Errorf("asm: duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.insts)
	return b
}

// Line records the source line (1-based) that subsequently emitted
// instructions originate from, for diagnostics; 0 marks unknown provenance.
func (b *Builder) Line(line int) *Builder {
	b.curLine = line
	if line > 0 {
		b.hasLine = true
	}
	return b
}

// I emits a raw instruction.
func (b *Builder) I(inst isa.Inst) *Builder {
	b.insts = append(b.insts, inst)
	b.lines = append(b.lines, b.curLine)
	return b
}

// Op emits a three-register instruction.
func (b *Builder) Op(op isa.Opcode, rd, rs1, rs2 isa.Reg) *Builder {
	return b.I(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpImm emits a register-immediate instruction.
func (b *Builder) OpImm(op isa.Opcode, rd, rs1 isa.Reg, imm int64) *Builder {
	return b.I(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li emits a load-immediate.
func (b *Builder) Li(rd isa.Reg, v int64) *Builder {
	return b.I(isa.Inst{Op: isa.LI, Rd: rd, Imm: v})
}

// La emits a load of a data symbol's address (resolved at Build).
func (b *Builder) La(rd isa.Reg, sym string) *Builder {
	b.laFix = append(b.laFix, fixup{instIdx: len(b.insts), label: sym, dataSym: true})
	return b.I(isa.Inst{Op: isa.LI, Rd: rd})
}

// Load emits a load rd <- mem[rs1+off].
func (b *Builder) Load(op isa.Opcode, rd, rs1 isa.Reg, off int64) *Builder {
	return b.I(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: off})
}

// Store emits a store mem[rs1+off] <- rs2.
func (b *Builder) Store(op isa.Opcode, rs2, rs1 isa.Reg, off int64) *Builder {
	return b.I(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
}

// Branch emits a conditional branch to a label.
func (b *Builder) Branch(op isa.Opcode, rs1, rs2 isa.Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instIdx: len(b.insts), label: label})
	return b.I(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jump emits jal rd, label.
func (b *Builder) Jump(rd isa.Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instIdx: len(b.insts), label: label})
	return b.I(isa.Inst{Op: isa.JAL, Rd: rd})
}

// Hint emits a LoopFrog hint targeting a label (the region's continuation).
func (b *Builder) Hint(op isa.Opcode, label string) *Builder {
	if !isa.OpMeta(op).IsHint {
		b.setErr(fmt.Errorf("asm: %s is not a hint", op))
		return b
	}
	b.fixups = append(b.fixups, fixup{instIdx: len(b.insts), label: label})
	return b.I(isa.Inst{Op: op})
}

// Halt emits a halt.
func (b *Builder) Halt() *Builder { return b.I(isa.Inst{Op: isa.HALT}) }

// Align pads the data segment to a multiple of n bytes.
func (b *Builder) Align(n int) *Builder {
	b.data.Align(n)
	return b
}

// Sym defines a data symbol at the current end of the data segment.
func (b *Builder) Sym(name string) *Builder {
	if _, dup := b.symbols[name]; dup {
		b.setErr(fmt.Errorf("asm: duplicate symbol %q", name))
		return b
	}
	b.symbols[name] = b.base + uint64(b.data.Len())
	return b
}

// Quad appends 64-bit little-endian values to the data segment. As with the
// assembler's .quad, no implicit alignment is performed; call Align first if
// the current offset may be unaligned.
func (b *Builder) Quad(vs ...uint64) *Builder {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		b.data.Append(buf[:])
	}
	return b
}

// Bytes appends raw bytes to the data segment.
func (b *Builder) Bytes(p []byte) *Builder {
	b.data.Append(p)
	return b
}

// Zero appends n zero bytes to the data segment. It only grows the
// segment's size: no bytes are stored for them (DataImage).
func (b *Builder) Zero(n int) *Builder {
	b.data.Zero(n)
	return b
}

// Build resolves labels and returns the program image.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &Program{
		Name:     b.name,
		Insts:    b.insts,
		Labels:   b.labels,
		Data:     b.data,
		DataBase: b.base,
		Symbols:  b.symbols,
	}
	if b.hasLine {
		p.Lines = b.lines
	}
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: unknown label %q", f.label)
		}
		p.Insts[f.instIdx].Imm = int64(idx)
	}
	for _, f := range b.laFix {
		if addr, ok := b.symbols[f.label]; ok {
			p.Insts[f.instIdx].Imm = int64(addr)
			continue
		}
		if idx, ok := b.labels[f.label]; ok {
			p.Insts[f.instIdx].Imm = int64(idx)
			continue
		}
		return nil, fmt.Errorf("asm: unknown symbol %q", f.label)
	}
	if idx, ok := p.Labels["main"]; ok {
		p.Entry = idx
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
