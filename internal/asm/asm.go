// Package asm provides a label-based program builder for the simulator's
// ISA. Workloads construct programs through the Builder's fluent mnemonic
// methods; Build resolves labels to absolute instruction indices and
// validates the result.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
)

// Builder assembles a program incrementally.
type Builder struct {
	name    string
	code    []isa.Inst
	fixups  []fixup        // label references to resolve at Build
	labels  map[string]int // label -> instruction index
	data    []byte         // initial memory image
	memSize int            // total memory size; grows with allocations
	errs    []error
}

type fixup struct {
	instIdx int
	label   string
}

// New returns an empty Builder for a program with the given name.
func New(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
	}
}

// errf records a deferred error reported by Build.
func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("asm %q: "+format, append([]any{b.name}, args...)...))
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

// Here returns the current instruction index.
func (b *Builder) Here() int { return len(b.code) }

func (b *Builder) emit(in isa.Inst) *Builder {
	b.code = append(b.code, in)
	return b
}

func (b *Builder) emitTarget(in isa.Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, in)
	return b
}

// --- integer register-register ---

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Add, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Sub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.And, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Or, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Xor, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shl emits rd = rs1 << rs2.
func (b *Builder) Shl(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Shl, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shr emits rd = rs1 >> rs2 (logical).
func (b *Builder) Shr(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Shr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sra emits rd = rs1 >> rs2 (arithmetic).
func (b *Builder) Sra(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Sra, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Slt emits rd = (rs1 < rs2), signed.
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Slt, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sltu emits rd = (rs1 < rs2), unsigned.
func (b *Builder) Sltu(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Sltu, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2 (iMULT/DIV unit).
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Mul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2, signed (non-pipelined).
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Div, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Rem emits rd = rs1 % rs2, signed (non-pipelined).
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Rem, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// --- integer register-immediate ---

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Addi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Andi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori emits rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Ori, Rd: rd, Rs1: rs1, Imm: imm})
}

// Xori emits rd = rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Xori, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shli emits rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Shli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shri emits rd = rs1 >> imm (logical).
func (b *Builder) Shri(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Shri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Srai emits rd = rs1 >> imm (arithmetic).
func (b *Builder) Srai(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Srai, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slti emits rd = (rs1 < imm), signed.
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Slti, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li loads an immediate constant (pseudo-instruction: addi rd, r0, imm).
func (b *Builder) Li(rd isa.Reg, imm int64) *Builder {
	return b.Addi(rd, isa.RZero, imm)
}

// Mv copies a register (pseudo-instruction: addi rd, rs, 0).
func (b *Builder) Mv(rd, rs isa.Reg) *Builder { return b.Addi(rd, rs, 0) }

// --- memory ---

// Ld emits rd = mem[base+off] (8 bytes).
func (b *Builder) Ld(rd, base isa.Reg, off int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Ld, Rd: rd, Rs1: base, Imm: off})
}

// St emits mem[base+off] = val (8 bytes).
func (b *Builder) St(val, base isa.Reg, off int64) *Builder {
	return b.emit(isa.Inst{Op: isa.St, Rs1: base, Rs2: val, Imm: off})
}

// Fld emits fd = mem[base+off] (float64).
func (b *Builder) Fld(fd, base isa.Reg, off int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Fld, Rd: fd, Rs1: base, Imm: off})
}

// Fst emits mem[base+off] = fval (float64).
func (b *Builder) Fst(fval, base isa.Reg, off int64) *Builder {
	return b.emit(isa.Inst{Op: isa.Fst, Rs1: base, Rs2: fval, Imm: off})
}

// --- floating point ---

// Fadd emits fd = fs1 + fs2.
func (b *Builder) Fadd(fd, fs1, fs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fadd, Rd: fd, Rs1: fs1, Rs2: fs2})
}

// Fsub emits fd = fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fsub, Rd: fd, Rs1: fs1, Rs2: fs2})
}

// Fmul emits fd = fs1 * fs2.
func (b *Builder) Fmul(fd, fs1, fs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fmul, Rd: fd, Rs1: fs1, Rs2: fs2})
}

// Fdiv emits fd = fs1 / fs2 (non-pipelined).
func (b *Builder) Fdiv(fd, fs1, fs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fdiv, Rd: fd, Rs1: fs1, Rs2: fs2})
}

// Fclt emits rd = (fs1 < fs2) into an integer register.
func (b *Builder) Fclt(rd, fs1, fs2 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fclt, Rd: rd, Rs1: fs1, Rs2: fs2})
}

// Fcvti emits rd = int64(fs1).
func (b *Builder) Fcvti(rd, fs1 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fcvti, Rd: rd, Rs1: fs1})
}

// Fcvtf emits fd = float64(rs1).
func (b *Builder) Fcvtf(fd, rs1 isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Fcvtf, Rd: fd, Rs1: rs1})
}

// --- control flow ---

// Beq emits a branch to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) *Builder {
	return b.emitTarget(isa.Inst{Op: isa.Beq, Rs1: rs1, Rs2: rs2}, label)
}

// Bne emits a branch to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) *Builder {
	return b.emitTarget(isa.Inst{Op: isa.Bne, Rs1: rs1, Rs2: rs2}, label)
}

// Blt emits a branch to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) *Builder {
	return b.emitTarget(isa.Inst{Op: isa.Blt, Rs1: rs1, Rs2: rs2}, label)
}

// Bge emits a branch to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) *Builder {
	return b.emitTarget(isa.Inst{Op: isa.Bge, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp emits an unconditional direct jump to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emitTarget(isa.Inst{Op: isa.Jmp}, label)
}

// Jal emits a jump-and-link: rd = return index, jump to label.
func (b *Builder) Jal(rd isa.Reg, label string) *Builder {
	return b.emitTarget(isa.Inst{Op: isa.Jal, Rd: rd}, label)
}

// Call emits Jal through the conventional link register.
func (b *Builder) Call(label string) *Builder { return b.Jal(isa.RLink, label) }

// Jr emits an indirect jump to the instruction index in rs.
func (b *Builder) Jr(rs isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.Jr, Rs1: rs})
}

// Ret emits Jr through the conventional link register.
func (b *Builder) Ret() *Builder { return b.Jr(isa.RLink) }

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(isa.Inst{Op: isa.Nop}) }

// Halt emits the stop instruction.
func (b *Builder) Halt() *Builder { return b.emit(isa.Inst{Op: isa.Halt}) }

// --- data segment ---

const dataAlign = 64 // cache-line align each allocation

func (b *Builder) align() {
	for len(b.data)%dataAlign != 0 {
		b.data = append(b.data, 0)
	}
}

// Words appends 64-bit words to the data segment (cache-line aligned) and
// returns the byte address of the first word.
func (b *Builder) Words(vals ...uint64) uint64 {
	b.align()
	addr := uint64(len(b.data))
	b.data = slices.Grow(b.data, 8*len(vals))
	for _, v := range vals {
		b.data = binary.LittleEndian.AppendUint64(b.data, v)
	}
	return addr
}

// Floats appends float64 values to the data segment and returns the byte
// address of the first value.
func (b *Builder) Floats(vals ...float64) uint64 {
	words := make([]uint64, len(vals))
	for i, v := range vals {
		words[i] = f2u(v)
	}
	return b.Words(words...)
}

// Alloc reserves n zeroed bytes (cache-line aligned) in the data segment and
// returns their byte address.
func (b *Builder) Alloc(n int) uint64 {
	b.align()
	addr := uint64(len(b.data))
	b.data = slices.Grow(b.data, n)[:len(b.data)+n]
	clear(b.data[addr:])
	return addr
}

// ReserveMem ensures the program's memory is at least n bytes, without
// extending the initial data image. Use it for large zeroed working sets.
func (b *Builder) ReserveMem(n int) *Builder {
	if n > b.memSize {
		b.memSize = n
	}
	return b
}

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm %q: undefined label %q", b.name, f.label)
		}
		b.code[f.instIdx].Imm = int64(idx)
	}
	mem := b.memSize
	if len(b.data) > mem {
		mem = len(b.data)
	}
	if mem == 0 {
		mem = 4096
	}
	p := &isa.Program{
		Name:    b.name,
		Code:    b.code,
		Data:    b.data,
		MemSize: mem,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on error. Workload constructors use it since
// their programs are fixed at compile time.
func (b *Builder) MustBuild() *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func f2u(f float64) uint64 { return math.Float64bits(f) }
