// Package asm provides the LFISA program image and a two-pass assembler.
//
// A program image holds the instruction stream, the initial data segment and
// its symbols, and the entry point. Images are produced either by assembling
// text (Assemble) or programmatically via Builder, and are consumed by the
// reference interpreter, the out-of-order core model, and the LoopFrog
// engine.
package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"loopfrog/internal/isa"
)

// DefaultDataBase is the byte address where the data segment is placed unless
// the source overrides it with a .base directive.
const DefaultDataBase uint64 = 0x100000

// DefaultStackTop is the initial stack pointer handed to programs by the
// simulator's loader. The stack grows downwards and is far away from the
// data segment.
const DefaultStackTop uint64 = 0x8000000

// Program is an assembled LFISA program image.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Insts is the instruction stream; the PC indexes this slice.
	Insts []isa.Inst
	// Entry is the instruction index where execution starts.
	Entry int
	// Labels maps code labels to instruction indices.
	Labels map[string]int
	// Data is the initial data segment, loaded at DataBase.
	Data DataImage
	// DataBase is the byte address of the segment's first byte.
	DataBase uint64
	// Symbols maps data labels to byte addresses.
	Symbols map[string]uint64
	// Lines holds the source line of each instruction (1-based), parallel to
	// Insts, when the producer tracked provenance; nil or a zero entry means
	// unknown. Lines are debug metadata: excluded from Fingerprint.
	Lines []int

	// Fingerprint cache; computed on demand, images are immutable once built.
	fpOnce sync.Once
	fp     string

	// Predecoded image cache (Decoded); built once, shared read-only.
	decOnce sync.Once
	dec     []DecInst
}

// DecInst is one predecoded instruction: the architectural instruction plus a
// pointer into the immutable opcode metadata table. Execution engines index a
// PC-indexed []DecInst instead of consulting isa.OpMeta on every fetch, and
// the metadata pointer rides along with the dynamic instruction so no stage
// re-copies the Meta value. The out-of-order core's front end and the
// fast-functional tier share this machinery.
type DecInst struct {
	Inst isa.Inst
	Meta *isa.Meta
}

// Decoded returns the PC-indexed predecoded image. It is built once per
// program — images are immutable once assembled — and shared read-only by
// every machine running the program, including concurrent harness workers.
func (p *Program) Decoded() []DecInst {
	p.decOnce.Do(func() {
		dec := make([]DecInst, len(p.Insts))
		for pc, inst := range p.Insts {
			dec[pc] = DecInst{Inst: inst, Meta: isa.MetaOf(inst.Op)}
		}
		p.dec = dec
	})
	return p.dec
}

// Fingerprint returns a content hash of the executable image: the encoded
// instruction stream, entry point, and initial data segment. Two programs
// with equal fingerprints simulate identically under any configuration, so
// the run-cache keys on it. The data segment is hashed by its content, not
// by how it was written (DataImage), in time proportional to its written
// bytes. Labels and symbols are debug metadata and are excluded. The program
// must not be mutated after the first call.
func (p *Program) Fingerprint() string {
	p.fpOnce.Do(func() {
		h := sha256.New()
		var buf [isa.InstBytes]byte
		for _, inst := range p.Insts {
			// Encode cannot fail for instructions that came through the
			// assembler/builder; a raw invalid opcode hashes as zeros.
			n, _ := isa.Encode(inst, buf[:])
			h.Write(buf[:n])
		}
		var tail [16]byte
		binary.LittleEndian.PutUint64(tail[0:], uint64(p.Entry))
		binary.LittleEndian.PutUint64(tail[8:], p.DataBase)
		h.Write(tail[:])
		p.Data.hashTo(h)
		p.fp = fmt.Sprintf("%x", h.Sum(nil))
	})
	return p.fp
}

// Label returns the instruction index of a code label.
func (p *Program) Label(name string) (int, bool) {
	idx, ok := p.Labels[name]
	return idx, ok
}

// MustLabel returns the instruction index of a code label, panicking if the
// label is unknown. Intended for tests and examples.
func (p *Program) MustLabel(name string) int {
	idx, ok := p.Labels[name]
	if !ok {
		panic(fmt.Sprintf("asm: unknown label %q", name))
	}
	return idx
}

// LineOf returns the source line of the instruction at idx, or 0 when the
// producer did not record provenance (e.g. Builder-generated code).
func (p *Program) LineOf(idx int) int {
	if idx < 0 || idx >= len(p.Lines) {
		return 0
	}
	return p.Lines[idx]
}

// NearestLabel returns the closest code label at or before idx and the
// instruction offset from it, for positioning diagnostics in label-rich but
// line-free images (compiler output). ok is false when no label precedes idx.
func (p *Program) NearestLabel(idx int) (name string, offset int, ok bool) {
	best := -1
	for n, at := range p.Labels {
		if at > idx || at < best {
			continue
		}
		if at > best || (at == best && n < name) {
			best, name = at, n
		}
	}
	if best < 0 {
		return "", 0, false
	}
	return name, idx - best, true
}

// Symbol returns the byte address of a data symbol.
func (p *Program) Symbol(name string) (uint64, bool) {
	addr, ok := p.Symbols[name]
	return addr, ok
}

// MustSymbol returns the byte address of a data symbol, panicking if unknown.
func (p *Program) MustSymbol(name string) uint64 {
	addr, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: unknown symbol %q", name))
	}
	return addr
}

// Disassemble renders the instruction stream with indices and labels,
// primarily for debugging and golden tests.
func (p *Program) Disassemble() string {
	byIndex := make(map[int][]string)
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	var b strings.Builder
	for i, inst := range p.Insts {
		for _, name := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "%5d: %s\n", i, inst)
	}
	return b.String()
}

// Validate checks structural well-formedness: targets in range, registers in
// range, x0 never written by a load, and hints carrying valid region IDs.
func (p *Program) Validate() error {
	n := len(p.Insts)
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("asm: entry %d out of range [0,%d)", p.Entry, n)
	}
	for idx, inst := range p.Insts {
		m := isa.OpMeta(inst.Op)
		if inst.Rd >= isa.NumRegs || inst.Rs1 >= isa.NumRegs || inst.Rs2 >= isa.NumRegs {
			return fmt.Errorf("asm: inst %d (%s): register out of range", idx, inst)
		}
		if m.IsBranch || inst.Op == isa.JAL || m.IsHint {
			if inst.Imm < 0 || inst.Imm >= int64(n) {
				return fmt.Errorf("asm: inst %d (%s): target %d out of range [0,%d)", idx, inst, inst.Imm, n)
			}
		}
	}
	return nil
}
