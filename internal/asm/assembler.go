package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"loopfrog/internal/isa"
)

// Assemble converts LFISA assembly text into a program image. The syntax is
// conventional two-section assembly:
//
//	        .data
//	arr:    .quad 1, 2, 3
//	buf:    .zero 64
//	        .text
//	main:   la   t0, arr
//	loop:   ld   t1, 0(t0)
//	        detach cont
//	        ...
//	        reattach cont
//	cont:   addi t0, t0, 8
//	        bne  t0, t2, loop
//	        sync cont
//	        halt
//
// Comments start with '#' or ';'. Labels end with ':'. Branch, jump and hint
// operands are labels. Registers are x0-x31 / f0-f31 with the usual ABI
// aliases (zero, ra, sp, a0-a7, t0-t6, s0-s11). Entry defaults to label
// "main" if present, otherwise instruction 0.
func Assemble(name, src string) (*Program, error) {
	a := &assembler{
		prog: &Program{
			Name:     name,
			Labels:   make(map[string]int),
			Symbols:  make(map[string]uint64),
			DataBase: DefaultDataBase,
		},
	}
	if err := a.run(src); err != nil {
		return nil, err
	}
	return a.prog, nil
}

// MustAssemble is Assemble that panics on error; for tests, examples and
// statically known-good workload sources.
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type section int

const (
	secText section = iota
	secData
)

type fixup struct {
	instIdx int
	label   string
	line    int
	// dataSym marks an `la`-style fixup resolved against data symbols first,
	// then code labels.
	dataSym bool
}

type assembler struct {
	prog   *Program
	sec    section
	fixups []fixup
	line   int
}

func (a *assembler) errf(format string, args ...interface{}) error {
	return fmt.Errorf("asm: line %d: %s", a.line, fmt.Sprintf(format, args...))
}

func (a *assembler) run(src string) error {
	a.sec = secText
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.doLine(raw); err != nil {
			return err
		}
	}
	if err := a.resolve(); err != nil {
		return err
	}
	if idx, ok := a.prog.Labels["main"]; ok {
		a.prog.Entry = idx
	}
	return a.prog.Validate()
}

func (a *assembler) doLine(raw string) error {
	text := raw
	if i := strings.IndexAny(text, "#;"); i >= 0 {
		text = text[:i]
	}
	text = strings.TrimSpace(text)
	for {
		colon := strings.Index(text, ":")
		if colon < 0 {
			break
		}
		label := strings.TrimSpace(text[:colon])
		if !isIdent(label) {
			return a.errf("bad label %q", label)
		}
		if err := a.defineLabel(label); err != nil {
			return err
		}
		text = strings.TrimSpace(text[colon+1:])
	}
	if text == "" {
		return nil
	}
	if strings.HasPrefix(text, ".") {
		return a.directive(text)
	}
	if a.sec != secText {
		return a.errf("instruction %q outside .text", text)
	}
	return a.instruction(text)
}

func (a *assembler) defineLabel(label string) error {
	if a.sec == secText {
		if _, dup := a.prog.Labels[label]; dup {
			return a.errf("duplicate label %q", label)
		}
		a.prog.Labels[label] = len(a.prog.Insts)
		return nil
	}
	if _, dup := a.prog.Symbols[label]; dup {
		return a.errf("duplicate symbol %q", label)
	}
	a.prog.Symbols[label] = a.prog.DataBase + uint64(a.prog.Data.Len())
	return nil
}

func (a *assembler) directive(text string) error {
	fields := strings.SplitN(text, " ", 2)
	dir := fields[0]
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".global", ".globl":
		// Accepted for familiarity; all labels are already visible.
	case ".base":
		if a.prog.Data.Len() > 0 {
			return a.errf(".base after data was emitted")
		}
		v, err := parseInt(rest)
		if err != nil {
			return a.errf(".base: %v", err)
		}
		a.prog.DataBase = uint64(v)
	case ".align":
		n, err := parseInt(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return a.errf(".align wants a positive power of two, got %q", rest)
		}
		a.prog.Data.Align(int(n))
	case ".zero":
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return a.errf(".zero wants a non-negative size, got %q", rest)
		}
		a.prog.Data.Zero(int(n))
	case ".byte", ".half", ".word", ".quad":
		// No implicit alignment: labels bind before directives are seen, so
		// auto-aligning would silently detach a label from its datum. Use
		// .align explicitly, as in conventional assemblers.
		size := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".quad": 8}[dir]
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return a.errf("%s: %v", dir, err)
			}
			a.emitData(uint64(v), size)
		}
	case ".double":
		for _, f := range splitOperands(rest) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return a.errf(".double: %v", err)
			}
			a.emitData(math.Float64bits(v), 8)
		}
	default:
		return a.errf("unknown directive %q", dir)
	}
	if a.sec != secData {
		switch dir {
		case ".zero", ".byte", ".half", ".word", ".quad", ".double", ".align":
			return a.errf("%s outside .data", dir)
		}
	}
	return nil
}

func (a *assembler) emitData(v uint64, size int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	a.prog.Data.Append(buf[:size])
}

func (a *assembler) emit(inst isa.Inst) {
	a.prog.Insts = append(a.prog.Insts, inst)
	a.prog.Lines = append(a.prog.Lines, a.line)
}

func (a *assembler) emitWithTarget(inst isa.Inst, label string) {
	a.fixups = append(a.fixups, fixup{instIdx: len(a.prog.Insts), label: label, line: a.line})
	a.emit(inst)
}

func (a *assembler) resolve() error {
	for _, f := range a.fixups {
		inst := &a.prog.Insts[f.instIdx]
		if f.dataSym {
			if addr, ok := a.prog.Symbols[f.label]; ok {
				inst.Imm = int64(addr)
				continue
			}
			if idx, ok := a.prog.Labels[f.label]; ok {
				inst.Imm = int64(idx)
				continue
			}
			return fmt.Errorf("asm: line %d: unknown symbol %q", f.line, f.label)
		}
		idx, ok := a.prog.Labels[f.label]
		if !ok {
			return fmt.Errorf("asm: line %d: unknown label %q", f.line, f.label)
		}
		inst.Imm = int64(idx)
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty integer")
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

var regAliases = map[string]isa.Reg{
	"zero": isa.X(0), "ra": isa.X(1), "sp": isa.X(2), "gp": isa.X(3), "tp": isa.X(4),
	"t0": isa.X(5), "t1": isa.X(6), "t2": isa.X(7),
	"s0": isa.X(8), "fp": isa.X(8), "s1": isa.X(9),
	"a0": isa.X(10), "a1": isa.X(11), "a2": isa.X(12), "a3": isa.X(13),
	"a4": isa.X(14), "a5": isa.X(15), "a6": isa.X(16), "a7": isa.X(17),
	"s2": isa.X(18), "s3": isa.X(19), "s4": isa.X(20), "s5": isa.X(21),
	"s6": isa.X(22), "s7": isa.X(23), "s8": isa.X(24), "s9": isa.X(25),
	"s10": isa.X(26), "s11": isa.X(27),
	"t3": isa.X(28), "t4": isa.X(29), "t5": isa.X(30), "t6": isa.X(31),
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.TrimSpace(s)
	if r, ok := regAliases[s]; ok {
		return r, nil
	}
	if len(s) >= 2 && (s[0] == 'x' || s[0] == 'f') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n <= 31 {
			if s[0] == 'x' {
				return isa.X(n), nil
			}
			return isa.F(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// parseMem parses "imm(reg)" or "(reg)".
func parseMem(s string) (int64, isa.Reg, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var off int64
	if open > 0 {
		v, err := parseInt(s[:open])
		if err != nil {
			return 0, 0, fmt.Errorf("bad memory offset in %q", s)
		}
		off = v
	}
	reg, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return off, reg, nil
}

var opByName = func() map[string]isa.Opcode {
	m := make(map[string]isa.Opcode, isa.NumOpcodes)
	for op := 0; op < isa.NumOpcodes; op++ {
		m[isa.OpMeta(isa.Opcode(op)).Name] = isa.Opcode(op)
	}
	return m
}()

func (a *assembler) instruction(text string) error {
	fields := strings.SplitN(text, " ", 2)
	mnem := strings.ToLower(fields[0])
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	ops := splitOperands(rest)

	// Pseudo-instructions first.
	switch mnem {
	case "mv":
		return a.rrImm(isa.ADDI, ops, 0)
	case "not":
		return a.rrImm(isa.XORI, ops, -1)
	case "neg":
		if len(ops) != 2 {
			return a.errf("neg wants 2 operands")
		}
		rd, err1 := parseReg(ops[0])
		rs, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf("neg: bad register")
		}
		a.emit(isa.Inst{Op: isa.SUB, Rd: rd, Rs1: isa.X(0), Rs2: rs})
		return nil
	case "la":
		if len(ops) != 2 {
			return a.errf("la wants 2 operands")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return a.errf("la: %v", err)
		}
		if !isIdent(ops[1]) {
			return a.errf("la: bad symbol %q", ops[1])
		}
		a.fixups = append(a.fixups, fixup{instIdx: len(a.prog.Insts), label: ops[1], line: a.line, dataSym: true})
		a.emit(isa.Inst{Op: isa.LI, Rd: rd})
		return nil
	case "j":
		if len(ops) != 1 {
			return a.errf("j wants 1 operand")
		}
		a.emitWithTarget(isa.Inst{Op: isa.JAL, Rd: isa.X(0)}, ops[0])
		return nil
	case "call":
		if len(ops) != 1 {
			return a.errf("call wants 1 operand")
		}
		a.emitWithTarget(isa.Inst{Op: isa.JAL, Rd: isa.X(1)}, ops[0])
		return nil
	case "ret":
		a.emit(isa.Inst{Op: isa.JALR, Rd: isa.X(0), Rs1: isa.X(1)})
		return nil
	case "beqz", "bnez", "bltz", "bgez":
		if len(ops) != 2 {
			return a.errf("%s wants 2 operands", mnem)
		}
		rs, err := parseReg(ops[0])
		if err != nil {
			return a.errf("%s: %v", mnem, err)
		}
		op := map[string]isa.Opcode{"beqz": isa.BEQ, "bnez": isa.BNE, "bltz": isa.BLT, "bgez": isa.BGE}[mnem]
		a.emitWithTarget(isa.Inst{Op: op, Rs1: rs, Rs2: isa.X(0)}, ops[1])
		return nil
	case "ble", "bgt":
		if len(ops) != 3 {
			return a.errf("%s wants 3 operands", mnem)
		}
		r1, err1 := parseReg(ops[0])
		r2, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf("%s: bad register", mnem)
		}
		// ble a,b,l == bge b,a,l ; bgt a,b,l == blt b,a,l
		op := isa.BGE
		if mnem == "bgt" {
			op = isa.BLT
		}
		a.emitWithTarget(isa.Inst{Op: op, Rs1: r2, Rs2: r1}, ops[2])
		return nil
	}

	op, ok := opByName[mnem]
	if !ok {
		return a.errf("unknown mnemonic %q", mnem)
	}
	m := isa.OpMeta(op)

	switch {
	case op == isa.NOP || op == isa.HALT:
		if len(ops) != 0 {
			return a.errf("%s takes no operands", mnem)
		}
		a.emit(isa.Inst{Op: op})
	case m.IsHint:
		if len(ops) != 1 || !isIdent(ops[0]) {
			return a.errf("%s wants a label operand", mnem)
		}
		a.emitWithTarget(isa.Inst{Op: op}, ops[0])
	case op == isa.LI:
		if len(ops) != 2 {
			return a.errf("li wants 2 operands")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return a.errf("li: %v", err)
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return a.errf("li: %v", err)
		}
		a.emit(isa.Inst{Op: isa.LI, Rd: rd, Imm: v})
	case m.IsLoad:
		if len(ops) != 2 {
			return a.errf("%s wants rd, imm(rs)", mnem)
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return a.errf("%s: %v", mnem, err)
		}
		off, rs, err := parseMem(ops[1])
		if err != nil {
			return a.errf("%s: %v", mnem, err)
		}
		a.emit(isa.Inst{Op: op, Rd: rd, Rs1: rs, Imm: off})
	case m.IsStore:
		if len(ops) != 2 {
			return a.errf("%s wants rs2, imm(rs1)", mnem)
		}
		rs2, err := parseReg(ops[0])
		if err != nil {
			return a.errf("%s: %v", mnem, err)
		}
		off, rs1, err := parseMem(ops[1])
		if err != nil {
			return a.errf("%s: %v", mnem, err)
		}
		a.emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
	case m.IsBranch:
		if len(ops) != 3 {
			return a.errf("%s wants rs1, rs2, label", mnem)
		}
		r1, err1 := parseReg(ops[0])
		r2, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf("%s: bad register", mnem)
		}
		a.emitWithTarget(isa.Inst{Op: op, Rs1: r1, Rs2: r2}, ops[2])
	case op == isa.JAL:
		if len(ops) != 2 {
			return a.errf("jal wants rd, label")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return a.errf("jal: %v", err)
		}
		a.emitWithTarget(isa.Inst{Op: isa.JAL, Rd: rd}, ops[1])
	case op == isa.JALR:
		if len(ops) != 3 && len(ops) != 2 {
			return a.errf("jalr wants rd, rs1[, imm]")
		}
		rd, err1 := parseReg(ops[0])
		rs, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf("jalr: bad register")
		}
		var imm int64
		if len(ops) == 3 {
			imm, err1 = parseInt(ops[2])
			if err1 != nil {
				return a.errf("jalr: %v", err1)
			}
		}
		a.emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs1: rs, Imm: imm})
	case m.HasRs2: // three-register ops
		if len(ops) != 3 {
			return a.errf("%s wants rd, rs1, rs2", mnem)
		}
		rd, e0 := parseReg(ops[0])
		r1, e1 := parseReg(ops[1])
		r2, e2 := parseReg(ops[2])
		if e0 != nil || e1 != nil || e2 != nil {
			return a.errf("%s: bad register", mnem)
		}
		a.emit(isa.Inst{Op: op, Rd: rd, Rs1: r1, Rs2: r2})
	case m.HasRs1 && m.HasRd && m.Class == isa.ClassIntALU: // reg-imm ALU
		if len(ops) != 3 {
			return a.errf("%s wants rd, rs1, imm", mnem)
		}
		rd, e0 := parseReg(ops[0])
		r1, e1 := parseReg(ops[1])
		if e0 != nil || e1 != nil {
			return a.errf("%s: bad register", mnem)
		}
		v, err := parseInt(ops[2])
		if err != nil {
			return a.errf("%s: %v", mnem, err)
		}
		a.emit(isa.Inst{Op: op, Rd: rd, Rs1: r1, Imm: v})
	case m.HasRs1 && m.HasRd: // two-register ops (FP unary, converts)
		if len(ops) != 2 {
			return a.errf("%s wants rd, rs1", mnem)
		}
		rd, e0 := parseReg(ops[0])
		r1, e1 := parseReg(ops[1])
		if e0 != nil || e1 != nil {
			return a.errf("%s: bad register", mnem)
		}
		a.emit(isa.Inst{Op: op, Rd: rd, Rs1: r1})
	default:
		return a.errf("unhandled mnemonic %q", mnem)
	}
	return nil
}

func (a *assembler) rrImm(op isa.Opcode, ops []string, imm int64) error {
	if len(ops) != 2 {
		return a.errf("pseudo wants 2 operands")
	}
	rd, err1 := parseReg(ops[0])
	rs, err2 := parseReg(ops[1])
	if err1 != nil || err2 != nil {
		return a.errf("pseudo: bad register")
	}
	a.emit(isa.Inst{Op: op, Rd: rd, Rs1: rs, Imm: imm})
	return nil
}
