// Package isa defines LFISA, the small 64-bit RISC instruction set used by
// the LoopFrog simulator, including the three LoopFrog hint instructions
// (DETACH, REATTACH, SYNC) described in §3.1 of the paper.
//
// LFISA is deliberately simple: 32 integer and 32 floating-point registers,
// register-register arithmetic, immediate forms, byte- to double-word loads
// and stores, conditional branches, and direct/indirect jumps. Code and data
// live in separate address spaces: the program counter indexes the
// instruction slice, while data memory is a byte-addressed 64-bit space.
// For instruction-cache modelling a code address maps to byte address PC*4.
//
// The hint instructions carry the continuation block's address, which doubles
// as the unique region ID for the annotated loop (§3.1). Treating all three
// hints as NOPs recovers the exact sequential semantics of the program.
package isa

import "fmt"

// Reg identifies a register. Values 0-31 are the integer registers x0-x31
// (x0 is hardwired to zero); values 32-63 are the floating-point registers
// f0-f31. The zero value is therefore the always-zero register.
type Reg uint8

// Register space layout.
const (
	// X0 is the hardwired-zero integer register.
	X0 Reg = 0
	// FPBase is the register index of f0.
	FPBase Reg = 32
	// NumRegs is the total architectural register count (int + fp).
	NumRegs = 64
)

// X returns the integer register xn.
func X(n int) Reg {
	if n < 0 || n > 31 {
		panic(fmt.Sprintf("isa: integer register index %d out of range", n))
	}
	return Reg(n)
}

// F returns the floating-point register fn.
func F(n int) Reg {
	if n < 0 || n > 31 {
		panic(fmt.Sprintf("isa: fp register index %d out of range", n))
	}
	return FPBase + Reg(n)
}

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase }

// String returns the assembly name of the register (x0-x31, f0-f31).
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", r-FPBase)
	}
	return fmt.Sprintf("x%d", r)
}

// Opcode enumerates every LFISA operation.
type Opcode uint8

// Instruction opcodes.
const (
	NOP Opcode = iota
	HALT

	// Integer register-register ALU.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	MUL
	DIV
	REM

	// Integer register-immediate ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LI // rd <- imm (64-bit immediate; also produced by the `la` pseudo-op)

	// Floating point (IEEE 754 binary64).
	FADD
	FSUB
	FMUL
	FDIV
	FSQRT
	FMIN
	FMAX
	FABS
	FNEG
	FCVTIF // rd(f) <- float64(int64(rs1))
	FCVTFI // rd(x) <- int64(float64(rs1)), truncating
	FMOV   // rd(f) <- rs1(f)
	FEQ    // rd(x) <- rs1(f) == rs2(f)
	FLT    // rd(x) <- rs1(f) <  rs2(f)
	FLE    // rd(x) <- rs1(f) <= rs2(f)

	// Loads: rd <- mem[rs1+imm].
	LB
	LBU
	LH
	LHU
	LW
	LWU
	LD
	FLD

	// Stores: mem[rs1+imm] <- rs2.
	SB
	SH
	SW
	SD
	FSD

	// Control flow. Branch/jump targets are instruction indices in Imm.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL  // rd <- pc+1; pc <- imm
	JALR // rd <- pc+1; pc <- rs1+imm

	// LoopFrog hints (§3.1). Imm holds the continuation address, which is
	// also the region ID. All three are architectural NOPs.
	DETACH
	REATTACH
	SYNC

	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

// Class groups opcodes by the pipeline resources they use (Table 1 FU pools).
type Class uint8

// Functional-unit classes.
const (
	ClassNop    Class = iota // consumes no FU (NOP, HALT, hints)
	ClassIntALU              // simple integer ops
	ClassMulDiv              // integer multiply/divide pipes
	ClassFP                  // FP add/mul/convert pipes
	ClassFPDiv               // FP divide/sqrt pipes
	ClassLoad                // load pipes
	ClassStore               // store pipes
	ClassBranch              // branch/jump resolution pipes
	NumClasses
)

// String returns a short name for the class.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "alu"
	case ClassMulDiv:
		return "muldiv"
	case ClassFP:
		return "fp"
	case ClassFPDiv:
		return "fpdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	}
	return "unknown"
}

// Inst is a decoded LFISA instruction. Unused fields are zero.
type Inst struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	// Imm holds the immediate operand: ALU immediates, load/store offsets,
	// branch/jump target instruction indices, or the hint region ID.
	Imm int64
}

// Meta describes static properties of an opcode.
type Meta struct {
	Name    string
	Class   Class
	Latency int  // execution latency in cycles once issued
	HasRd   bool // writes Rd
	HasRs1  bool // reads Rs1
	HasRs2  bool // reads Rs2
	IsLoad  bool
	IsStore bool
	// MemBytes is the access size for loads/stores, 0 otherwise.
	MemBytes int
	// Unsigned marks zero-extending loads and unsigned compares.
	Unsigned bool
	IsBranch bool // conditional branch
	IsJump   bool // unconditional control transfer (JAL/JALR)
	IsHint   bool // LoopFrog hint
}

var metaTable = [NumOpcodes]Meta{
	NOP:  {Name: "nop", Class: ClassNop},
	HALT: {Name: "halt", Class: ClassNop},

	ADD:  {Name: "add", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	SUB:  {Name: "sub", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	AND:  {Name: "and", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	OR:   {Name: "or", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	XOR:  {Name: "xor", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	SLL:  {Name: "sll", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	SRL:  {Name: "srl", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	SRA:  {Name: "sra", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	SLT:  {Name: "slt", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true},
	SLTU: {Name: "sltu", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true, HasRs2: true, Unsigned: true},
	MUL:  {Name: "mul", Class: ClassMulDiv, Latency: 3, HasRd: true, HasRs1: true, HasRs2: true},
	DIV:  {Name: "div", Class: ClassMulDiv, Latency: 12, HasRd: true, HasRs1: true, HasRs2: true},
	REM:  {Name: "rem", Class: ClassMulDiv, Latency: 12, HasRd: true, HasRs1: true, HasRs2: true},

	ADDI: {Name: "addi", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	ANDI: {Name: "andi", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	ORI:  {Name: "ori", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	XORI: {Name: "xori", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	SLLI: {Name: "slli", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	SRLI: {Name: "srli", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	SRAI: {Name: "srai", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	SLTI: {Name: "slti", Class: ClassIntALU, Latency: 1, HasRd: true, HasRs1: true},
	LI:   {Name: "li", Class: ClassIntALU, Latency: 1, HasRd: true},

	FADD:   {Name: "fadd", Class: ClassFP, Latency: 3, HasRd: true, HasRs1: true, HasRs2: true},
	FSUB:   {Name: "fsub", Class: ClassFP, Latency: 3, HasRd: true, HasRs1: true, HasRs2: true},
	FMUL:   {Name: "fmul", Class: ClassFP, Latency: 4, HasRd: true, HasRs1: true, HasRs2: true},
	FDIV:   {Name: "fdiv", Class: ClassFPDiv, Latency: 12, HasRd: true, HasRs1: true, HasRs2: true},
	FSQRT:  {Name: "fsqrt", Class: ClassFPDiv, Latency: 16, HasRd: true, HasRs1: true},
	FMIN:   {Name: "fmin", Class: ClassFP, Latency: 2, HasRd: true, HasRs1: true, HasRs2: true},
	FMAX:   {Name: "fmax", Class: ClassFP, Latency: 2, HasRd: true, HasRs1: true, HasRs2: true},
	FABS:   {Name: "fabs", Class: ClassFP, Latency: 1, HasRd: true, HasRs1: true},
	FNEG:   {Name: "fneg", Class: ClassFP, Latency: 1, HasRd: true, HasRs1: true},
	FCVTIF: {Name: "fcvtif", Class: ClassFP, Latency: 3, HasRd: true, HasRs1: true},
	FCVTFI: {Name: "fcvtfi", Class: ClassFP, Latency: 3, HasRd: true, HasRs1: true},
	FMOV:   {Name: "fmov", Class: ClassFP, Latency: 1, HasRd: true, HasRs1: true},
	FEQ:    {Name: "feq", Class: ClassFP, Latency: 2, HasRd: true, HasRs1: true, HasRs2: true},
	FLT:    {Name: "flt", Class: ClassFP, Latency: 2, HasRd: true, HasRs1: true, HasRs2: true},
	FLE:    {Name: "fle", Class: ClassFP, Latency: 2, HasRd: true, HasRs1: true, HasRs2: true},

	LB:  {Name: "lb", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 1},
	LBU: {Name: "lbu", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 1, Unsigned: true},
	LH:  {Name: "lh", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 2},
	LHU: {Name: "lhu", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 2, Unsigned: true},
	LW:  {Name: "lw", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 4},
	LWU: {Name: "lwu", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 4, Unsigned: true},
	LD:  {Name: "ld", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 8},
	FLD: {Name: "fld", Class: ClassLoad, Latency: 2, HasRd: true, HasRs1: true, IsLoad: true, MemBytes: 8},

	SB:  {Name: "sb", Class: ClassStore, Latency: 1, HasRs1: true, HasRs2: true, IsStore: true, MemBytes: 1},
	SH:  {Name: "sh", Class: ClassStore, Latency: 1, HasRs1: true, HasRs2: true, IsStore: true, MemBytes: 2},
	SW:  {Name: "sw", Class: ClassStore, Latency: 1, HasRs1: true, HasRs2: true, IsStore: true, MemBytes: 4},
	SD:  {Name: "sd", Class: ClassStore, Latency: 1, HasRs1: true, HasRs2: true, IsStore: true, MemBytes: 8},
	FSD: {Name: "fsd", Class: ClassStore, Latency: 1, HasRs1: true, HasRs2: true, IsStore: true, MemBytes: 8},

	BEQ:  {Name: "beq", Class: ClassBranch, Latency: 1, HasRs1: true, HasRs2: true, IsBranch: true},
	BNE:  {Name: "bne", Class: ClassBranch, Latency: 1, HasRs1: true, HasRs2: true, IsBranch: true},
	BLT:  {Name: "blt", Class: ClassBranch, Latency: 1, HasRs1: true, HasRs2: true, IsBranch: true},
	BGE:  {Name: "bge", Class: ClassBranch, Latency: 1, HasRs1: true, HasRs2: true, IsBranch: true},
	BLTU: {Name: "bltu", Class: ClassBranch, Latency: 1, HasRs1: true, HasRs2: true, IsBranch: true, Unsigned: true},
	BGEU: {Name: "bgeu", Class: ClassBranch, Latency: 1, HasRs1: true, HasRs2: true, IsBranch: true, Unsigned: true},
	JAL:  {Name: "jal", Class: ClassBranch, Latency: 1, HasRd: true, IsJump: true},
	JALR: {Name: "jalr", Class: ClassBranch, Latency: 1, HasRd: true, HasRs1: true, IsJump: true},

	DETACH:   {Name: "detach", Class: ClassNop, IsHint: true},
	REATTACH: {Name: "reattach", Class: ClassNop, IsHint: true},
	SYNC:     {Name: "sync", Class: ClassNop, IsHint: true},
}

// OpMeta returns the static metadata for op.
func OpMeta(op Opcode) Meta {
	if int(op) >= NumOpcodes {
		return Meta{Name: "invalid"}
	}
	return metaTable[op]
}

var invalidMeta = Meta{Name: "invalid"}

// MetaOf returns a pointer to the static metadata for op. The table is
// immutable; callers must treat the result as read-only. Pipeline models keep
// the pointer per dynamic instruction instead of copying the Meta value.
func MetaOf(op Opcode) *Meta {
	if int(op) >= NumOpcodes {
		return &invalidMeta
	}
	return &metaTable[op]
}

// String returns the mnemonic of the opcode.
func (op Opcode) String() string { return OpMeta(op).Name }

// String disassembles the instruction.
func (i Inst) String() string {
	m := OpMeta(i.Op)
	switch {
	case i.Op == NOP || i.Op == HALT:
		return m.Name
	case m.IsHint:
		return fmt.Sprintf("%s %d", m.Name, i.Imm)
	case i.Op == LI:
		return fmt.Sprintf("%s %s, %d", m.Name, i.Rd, i.Imm)
	case m.IsLoad:
		return fmt.Sprintf("%s %s, %d(%s)", m.Name, i.Rd, i.Imm, i.Rs1)
	case m.IsStore:
		return fmt.Sprintf("%s %s, %d(%s)", m.Name, i.Rs2, i.Imm, i.Rs1)
	case m.IsBranch:
		return fmt.Sprintf("%s %s, %s, %d", m.Name, i.Rs1, i.Rs2, i.Imm)
	case i.Op == JAL:
		return fmt.Sprintf("%s %s, %d", m.Name, i.Rd, i.Imm)
	case i.Op == JALR:
		return fmt.Sprintf("%s %s, %s, %d", m.Name, i.Rd, i.Rs1, i.Imm)
	case m.HasRs2:
		return fmt.Sprintf("%s %s, %s, %s", m.Name, i.Rd, i.Rs1, i.Rs2)
	case m.HasRs1 && m.HasRd:
		if m.Class == ClassIntALU {
			return fmt.Sprintf("%s %s, %s, %d", m.Name, i.Rd, i.Rs1, i.Imm)
		}
		return fmt.Sprintf("%s %s, %s", m.Name, i.Rd, i.Rs1)
	default:
		return m.Name
	}
}
