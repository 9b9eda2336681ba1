// Package isa defines the instruction set architecture simulated by this
// repository: a 64-bit RISC-style ISA with 32 integer and 32 floating-point
// logical registers (64 total, matching the def_tab size assumed by the PUBS
// paper, §IV). Instructions are stored unencoded as Go structs; the PC of
// instruction i is i*4 bytes, mirroring a fixed 4-byte encoding for the
// purpose of table indexing and tag hashing.
package isa

import "fmt"

// Reg names a logical register. Registers 0..31 are the integer file
// (R0 is hardwired to zero, R1 is the link register by convention) and
// registers 32..63 are the floating-point file.
type Reg uint8

// NumLogicalRegs is the total number of logical registers (integer + FP).
// The paper's def_tab has exactly one row per logical register.
const NumLogicalRegs = 64

// Well-known registers.
const (
	RZero Reg = 0 // hardwired zero
	RLink Reg = 1 // conventional link register for Jal/Jr returns
)

// R returns the i-th integer register.
func R(i int) Reg {
	if i < 0 || i > 31 {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// F returns the i-th floating-point register.
func F(i int) Reg {
	if i < 0 || i > 31 {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg(32 + i)
}

// IsFP reports whether r belongs to the floating-point register file.
func (r Reg) IsFP() bool { return r >= 32 }

func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", r-32)
	}
	return fmt.Sprintf("r%d", r)
}

// Op is an operation code.
type Op uint8

// Operation codes. Immediate variants take Imm in place of Rs2.
const (
	Nop Op = iota

	// Integer ALU, register-register.
	Add
	Sub
	And
	Or
	Xor
	Shl
	Shr
	Sra
	Slt  // Rd = (int64(Rs1) < int64(Rs2)) ? 1 : 0
	Sltu // unsigned compare

	// Integer ALU, register-immediate.
	Addi
	Andi
	Ori
	Xori
	Shli
	Shri
	Srai
	Slti

	// Integer multiply/divide (iMULT/DIV unit).
	Mul
	Div // signed divide; divide-by-zero yields all-ones, as on Alpha-ish HW
	Rem

	// Memory (8-byte, naturally aligned).
	Ld  // Rd = mem[Rs1+Imm]
	St  // mem[Rs1+Imm] = Rs2
	Fld // Fd = mem[Rs1+Imm]
	Fst // mem[Rs1+Imm] = Fs2

	// Floating point (FPU).
	Fadd
	Fsub
	Fmul
	Fdiv
	Fclt  // Rd(int) = (F(Rs1) < F(Rs2)) ? 1 : 0
	Fcvti // Rd(int) = int64(F(Rs1))
	Fcvtf // Fd = float64(int64(Rs1))

	// Control flow. Branch/jump targets are absolute instruction indices
	// held in Imm (resolved by the assembler).
	Beq
	Bne
	Blt // signed
	Bge // signed
	Jmp // unconditional direct
	Jal // Rd = index of next instruction; jump to Imm
	Jr  // indirect jump to instruction index in Rs1

	Halt // stop the program

	numOps // sentinel
)

var opNames = [...]string{
	Nop: "nop",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Sra: "sra", Slt: "slt", Sltu: "sltu",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori",
	Shli: "shli", Shri: "shri", Srai: "srai", Slti: "slti",
	Mul: "mul", Div: "div", Rem: "rem",
	Ld: "ld", St: "st", Fld: "fld", Fst: "fst",
	Fadd: "fadd", Fsub: "fsub", Fmul: "fmul", Fdiv: "fdiv",
	Fclt: "fclt", Fcvti: "fcvti", Fcvtf: "fcvtf",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	Jmp: "jmp", Jal: "jal", Jr: "jr",
	Halt: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class groups operations by the function unit that executes them, matching
// the paper's Table I FU mix (2 iALU, 1 iMULT/DIV, 2 Ld/St, 2 FPU).
// Conditional branches and indirect jumps execute on the integer ALUs.
type Class uint8

// Function-unit classes, in Table I order.
const (
	ClassIntALU    Class = iota // integer ALUs (also branches and Jr)
	ClassIntMulDiv              // the iMULT/DIV unit
	ClassLoad                   // Ld/St units, load side
	ClassStore                  // Ld/St units, store side
	ClassFPU                    // floating-point units
	ClassNone                   // Nop, Halt, and direct jumps: no FU needed

	NumClasses // sentinel
)

var classNames = [...]string{"iALU", "iMULT/DIV", "load", "store", "FPU", "none"}

// String names the function-unit class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Inst is one static instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// Decode is table-driven: opTable holds, per operation code, everything the
// predicates below report, so each is a single indexed load on the
// simulator's per-instruction path. It has one row for every uint8 value,
// which lets the compiler drop the bounds check; rows past numOps keep the
// defaults an unknown op has always had (an integer-ALU op that writes Rd
// and reads Rs1 and Rs2 in one pipelined cycle).
type opInfo struct {
	class   Class
	flags   uint8
	nsrc    uint8
	latency uint8
}

const (
	opCondBranch  uint8 = 1 << iota // conditional branch
	opControl                       // can change control flow
	opLoad                          // reads memory
	opStore                         // writes memory
	opWritesRd                      // writes Rd (unless Rd is RZero)
	opImm                           // Imm substitutes for the second source
	opUnpipelined                   // blocks its function unit while executing
)

var opTable = buildOpTable()

func buildOpTable() (t [256]opInfo) {
	for i := range t {
		t[i] = opInfo{class: ClassIntALU, flags: opWritesRd, nsrc: 2, latency: 1}
	}
	set := func(class Class, flags, nsrc, latency uint8, ops ...Op) {
		for _, o := range ops {
			t[o] = opInfo{class: class, flags: flags, nsrc: nsrc, latency: latency}
		}
	}
	set(ClassNone, 0, 0, 1, Nop, Halt)
	set(ClassIntALU, opWritesRd, 2, 1, Add, Sub, And, Or, Xor, Shl, Shr, Sra, Slt, Sltu)
	set(ClassIntALU, opWritesRd|opImm, 1, 1, Addi, Andi, Ori, Xori, Shli, Shri, Srai, Slti)
	set(ClassIntMulDiv, opWritesRd, 2, 3, Mul)
	set(ClassIntMulDiv, opWritesRd|opUnpipelined, 2, 20, Div, Rem)
	set(ClassLoad, opLoad|opWritesRd|opImm, 1, 1, Ld, Fld)
	set(ClassStore, opStore|opImm, 2, 1, St, Fst)
	set(ClassFPU, opWritesRd, 2, 3, Fadd, Fsub, Fclt)
	set(ClassFPU, opWritesRd, 1, 3, Fcvti, Fcvtf)
	set(ClassFPU, opWritesRd, 2, 4, Fmul)
	set(ClassFPU, opWritesRd|opUnpipelined, 2, 12, Fdiv)
	set(ClassIntALU, opCondBranch|opControl, 2, 1, Beq, Bne, Blt, Bge)
	set(ClassNone, opControl, 0, 1, Jmp)
	set(ClassNone, opControl|opWritesRd, 0, 1, Jal)
	set(ClassIntALU, opControl, 1, 1, Jr)
	return t
}

// Class returns the function-unit class of the instruction.
func (in Inst) Class() Class { return opTable[in.Op].class }

// IsCondBranch reports whether the instruction is a conditional branch.
func (in Inst) IsCondBranch() bool { return opTable[in.Op].flags&opCondBranch != 0 }

// IsControl reports whether the instruction can change control flow.
func (in Inst) IsControl() bool { return opTable[in.Op].flags&opControl != 0 }

// IsIndirect reports whether the instruction's target comes from a register.
func (in Inst) IsIndirect() bool { return in.Op == Jr }

// IsLoad reports whether the instruction reads memory.
func (in Inst) IsLoad() bool { return opTable[in.Op].flags&opLoad != 0 }

// IsStore reports whether the instruction writes memory.
func (in Inst) IsStore() bool { return opTable[in.Op].flags&opStore != 0 }

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return opTable[in.Op].flags&(opLoad|opStore) != 0 }

// HasDest reports whether the instruction writes a register. Writes to the
// hardwired zero register are discarded and count as no destination.
func (in Inst) HasDest() bool { return opTable[in.Op].flags&opWritesRd != 0 && in.Rd != RZero }

// HasImmOperand reports whether Imm substitutes for the second source.
func (in Inst) HasImmOperand() bool { return opTable[in.Op].flags&opImm != 0 }

// Sources returns the logical source registers read by the instruction:
// Rs1 then Rs2, as many as the operation reads (a store's are its address
// base and its stored value). Reads of the hardwired zero register are
// reported (they are trivially ready) but never create slice links
// (nothing writes R0).
func (in Inst) Sources() (srcs [2]Reg, n int) {
	n = in.NumSources()
	switch n {
	case 2:
		srcs[1] = in.Rs2
		fallthrough
	case 1:
		srcs[0] = in.Rs1
	}
	return srcs, n
}

// NumSources returns how many of Rs1, Rs2 (in that order) the instruction
// reads — Sources' count, for callers that read the registers in place.
func (in Inst) NumSources() int { return int(opTable[in.Op].nsrc) }

// Latency returns the execution latency in cycles of the instruction on its
// function unit. Loads return address-generation latency only; the cache
// hierarchy supplies the rest. Divide latencies block (do not pipeline) the
// iMULT/DIV and FPU units.
func (in Inst) Latency() int64 { return int64(opTable[in.Op].latency) }

// Pipelined reports whether the instruction's function unit accepts a new
// operation every cycle while this one executes.
func (in Inst) Pipelined() bool { return opTable[in.Op].flags&opUnpipelined == 0 }

func (in Inst) String() string {
	switch {
	case in.Op == Nop || in.Op == Halt:
		return in.Op.String()
	case in.IsCondBranch():
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op == Jmp:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case in.Op == Jal:
		return fmt.Sprintf("jal %s, @%d", in.Rd, in.Imm)
	case in.Op == Jr:
		return fmt.Sprintf("jr %s", in.Rs1)
	case in.Op == St || in.Op == Fst:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case in.Op == Ld || in.Op == Fld:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case in.HasImmOperand():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is a complete executable: code, an initial data image loaded at
// address 0, and the total memory size the program may touch.
type Program struct {
	Name    string
	Code    []Inst
	Data    []byte // initial memory image, loaded at address 0
	MemSize int    // total bytes of memory; must cover Data
	Entry   int    // instruction index where execution starts
}

// PC converts an instruction index to its byte address.
func PC(idx int) uint64 { return uint64(idx) * 4 }

// Index converts a byte PC back to an instruction index.
func Index(pc uint64) int { return int(pc / 4) }

// Validate checks structural invariants: targets in range, registers in
// range, memory image within MemSize.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q has no code", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("isa: program %q entry %d out of range", p.Name, p.Entry)
	}
	if len(p.Data) > p.MemSize {
		return fmt.Errorf("isa: program %q data image (%d) exceeds MemSize (%d)", p.Name, len(p.Data), p.MemSize)
	}
	for i, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("isa: program %q inst %d: invalid op %d", p.Name, i, in.Op)
		}
		if in.Rd >= NumLogicalRegs || in.Rs1 >= NumLogicalRegs || in.Rs2 >= NumLogicalRegs {
			return fmt.Errorf("isa: program %q inst %d: register out of range", p.Name, i)
		}
		if in.IsControl() && !in.IsIndirect() {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("isa: program %q inst %d: target %d out of range", p.Name, i, in.Imm)
			}
		}
	}
	return nil
}
