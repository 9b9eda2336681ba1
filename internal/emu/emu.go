// Package emu implements a functional emulator for the simulator's ISA.
// It executes a program architecturally and yields the committed dynamic
// instruction stream (one DynInst per executed instruction) that drives the
// cycle-level timing model — the standard trace-driven arrangement the PUBS
// paper's SimpleScalar-derived simulator also uses.
package emu

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
)

// DynInst is one dynamically executed instruction with its architectural
// outcome. The timing model consumes these in program order.
type DynInst struct {
	Seq    uint64 // commit sequence number, starting at 0
	Idx    int    // static instruction index
	PC     uint64 // byte address (Idx*4)
	Inst   isa.Inst
	Class  isa.Class
	Taken  bool   // control flow: branch/jump taken?
	Target uint64 // byte address of taken-path target (valid when control)
	NextPC uint64 // byte address actually fetched next
	Addr   uint64 // effective address for loads/stores
}

// Machine executes a program one instruction at a time.
//
// Memory is copy-on-write at page granularity. A page nobody has written
// reads straight from the program's immutable data image (zero past its
// end), shared by every machine built from the program; the first store to
// a page copies it out into pages. Building a machine therefore costs
// O(pages), not O(MemSize), and program data is never written.
type Machine struct {
	prog   *isa.Program
	data   []byte                     // prog.Data: the shared, read-only initial image
	regs   [isa.NumLogicalRegs]uint64 // FP regs hold Float64bits
	memLen int
	pc     int // instruction index
	seq    uint64
	done   bool

	// pages holds this machine's private copy of every page written since
	// load, one pageSize-byte slice per page, nil for a clean page. dirty
	// mirrors it as a bitset (pages[p] != nil exactly when bit p is set),
	// so Snapshot and Restore visit only written pages, 64 at a time.
	pages [][]byte
	dirty []uint64
}

// New loads the program into a fresh machine.
func New(p *isa.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := numPages(p.MemSize)
	return &Machine{
		prog:   p,
		data:   p.Data,
		memLen: p.MemSize,
		pc:     p.Entry,
		pages:  make([][]byte, n),
		dirty:  make([]uint64, (n+63)/64),
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(p *isa.Program) *Machine {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Done reports whether the program has halted.
func (m *Machine) Done() bool { return m.done }

// Seq returns the number of instructions executed so far.
func (m *Machine) Seq() uint64 { return m.seq }

// Reg returns the architectural value of a register (for tests/inspection).
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// FReg returns a floating-point register's value.
func (m *Machine) FReg(r isa.Reg) float64 { return math.Float64frombits(m.regs[r]) }

// ReadWord returns the 8-byte word at addr (for tests/inspection).
func (m *Machine) ReadWord(addr uint64) uint64 { return m.load(addr) }

func (m *Machine) load(addr uint64) uint64 {
	if addr+8 > uint64(m.memLen) || addr%8 != 0 {
		m.badAccess("load", addr)
	}
	if pg := m.pages[addr>>pageShift]; pg != nil {
		return binary.LittleEndian.Uint64(pg[addr&(pageSize-1):])
	}
	return m.loadClean(addr)
}

// loadClean reads a word of a page no store has touched: from the data
// image, or past its end the image's tail bytes, if any, then zeros.
func (m *Machine) loadClean(addr uint64) uint64 {
	if addr+8 <= uint64(len(m.data)) {
		return binary.LittleEndian.Uint64(m.data[addr:])
	}
	var w [8]byte
	if addr < uint64(len(m.data)) {
		copy(w[:], m.data[addr:])
	}
	return binary.LittleEndian.Uint64(w[:])
}

func (m *Machine) store(addr, v uint64) {
	if addr+8 > uint64(m.memLen) || addr%8 != 0 {
		m.badAccess("store", addr)
	}
	// A store is 8-byte aligned and pageSize is a multiple of 8, so the
	// write never straddles a page boundary.
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		pg = m.copyOut(int(addr >> pageShift))
	}
	binary.LittleEndian.PutUint64(pg[addr&(pageSize-1):], v)
}

// badAccess reports a misaligned or out-of-range memory access, a bug in
// the program being run.
func (m *Machine) badAccess(kind string, addr uint64) {
	panic(fmt.Sprintf("emu %q: bad %s address %#x (mem %d) at pc %d",
		m.prog.Name, kind, addr, m.memLen, m.pc))
}

// copyOut gives page p its private copy, filled from the data image, and
// marks it dirty.
func (m *Machine) copyOut(p int) []byte {
	pg := make([]byte, pageSize)
	if start := p << pageShift; start < len(m.data) {
		copy(pg, m.data[start:])
	}
	m.pages[p] = pg
	m.dirty[p>>6] |= 1 << (p & 63)
	return pg
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r == isa.RZero {
		return
	}
	m.regs[r] = v
}

func (m *Machine) fval(r isa.Reg) float64 { return math.Float64frombits(m.regs[r]) }
func (m *Machine) setF(r isa.Reg, v float64) {
	m.setReg(r, math.Float64bits(v))
}

// Step executes one instruction and returns its dynamic record.
// ok is false once the program has halted.
func (m *Machine) Step() (di DynInst, ok bool) {
	ok = m.run(1, &di) == 1
	return
}

// Run executes up to max instructions (all of them if max == 0), returning
// the number executed. It builds no records: this is the fast-forward path.
func (m *Machine) Run(max uint64) uint64 { return m.run(max, nil) }

// run is the interpreter: the one copy of the instruction semantics behind
// both Step and Run. It executes up to max instructions (no limit when max
// == 0) and writes the last one's record into rec, field by field, only when
// rec is non-nil. A panicking instruction leaves pc and seq where they were.
func (m *Machine) run(max uint64, rec *DynInst) uint64 {
	var n uint64
	for !m.done && (max == 0 || n < max) {
		idx := m.pc
		in := m.prog.Code[idx]
		next := idx + 1
		var taken bool
		var addr uint64

		switch in.Op {
		case isa.Nop:
		case isa.Add:
			m.setReg(in.Rd, m.regs[in.Rs1]+m.regs[in.Rs2])
		case isa.Sub:
			m.setReg(in.Rd, m.regs[in.Rs1]-m.regs[in.Rs2])
		case isa.And:
			m.setReg(in.Rd, m.regs[in.Rs1]&m.regs[in.Rs2])
		case isa.Or:
			m.setReg(in.Rd, m.regs[in.Rs1]|m.regs[in.Rs2])
		case isa.Xor:
			m.setReg(in.Rd, m.regs[in.Rs1]^m.regs[in.Rs2])
		case isa.Shl:
			m.setReg(in.Rd, m.regs[in.Rs1]<<(m.regs[in.Rs2]&63))
		case isa.Shr:
			m.setReg(in.Rd, m.regs[in.Rs1]>>(m.regs[in.Rs2]&63))
		case isa.Sra:
			m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])>>(m.regs[in.Rs2]&63)))
		case isa.Slt:
			m.setReg(in.Rd, b2u(int64(m.regs[in.Rs1]) < int64(m.regs[in.Rs2])))
		case isa.Sltu:
			m.setReg(in.Rd, b2u(m.regs[in.Rs1] < m.regs[in.Rs2]))

		case isa.Addi:
			m.setReg(in.Rd, m.regs[in.Rs1]+uint64(in.Imm))
		case isa.Andi:
			m.setReg(in.Rd, m.regs[in.Rs1]&uint64(in.Imm))
		case isa.Ori:
			m.setReg(in.Rd, m.regs[in.Rs1]|uint64(in.Imm))
		case isa.Xori:
			m.setReg(in.Rd, m.regs[in.Rs1]^uint64(in.Imm))
		case isa.Shli:
			m.setReg(in.Rd, m.regs[in.Rs1]<<(uint64(in.Imm)&63))
		case isa.Shri:
			m.setReg(in.Rd, m.regs[in.Rs1]>>(uint64(in.Imm)&63))
		case isa.Srai:
			m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])>>(uint64(in.Imm)&63)))
		case isa.Slti:
			m.setReg(in.Rd, b2u(int64(m.regs[in.Rs1]) < in.Imm))

		case isa.Mul:
			m.setReg(in.Rd, m.regs[in.Rs1]*m.regs[in.Rs2])
		case isa.Div:
			d := int64(m.regs[in.Rs2])
			if d == 0 {
				m.setReg(in.Rd, ^uint64(0))
			} else {
				m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])/d))
			}
		case isa.Rem:
			d := int64(m.regs[in.Rs2])
			if d == 0 {
				m.setReg(in.Rd, m.regs[in.Rs1])
			} else {
				m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])%d))
			}

		case isa.Ld:
			addr = m.regs[in.Rs1] + uint64(in.Imm)
			m.setReg(in.Rd, m.load(addr))
		case isa.St:
			addr = m.regs[in.Rs1] + uint64(in.Imm)
			m.store(addr, m.regs[in.Rs2])
		case isa.Fld:
			addr = m.regs[in.Rs1] + uint64(in.Imm)
			m.regs[in.Rd] = m.load(addr)
		case isa.Fst:
			addr = m.regs[in.Rs1] + uint64(in.Imm)
			m.store(addr, m.regs[in.Rs2])

		case isa.Fadd:
			m.setF(in.Rd, m.fval(in.Rs1)+m.fval(in.Rs2))
		case isa.Fsub:
			m.setF(in.Rd, m.fval(in.Rs1)-m.fval(in.Rs2))
		case isa.Fmul:
			m.setF(in.Rd, m.fval(in.Rs1)*m.fval(in.Rs2))
		case isa.Fdiv:
			m.setF(in.Rd, m.fval(in.Rs1)/m.fval(in.Rs2))
		case isa.Fclt:
			m.setReg(in.Rd, b2u(m.fval(in.Rs1) < m.fval(in.Rs2)))
		case isa.Fcvti:
			m.setReg(in.Rd, uint64(int64(m.fval(in.Rs1))))
		case isa.Fcvtf:
			m.setF(in.Rd, float64(int64(m.regs[in.Rs1])))

		case isa.Beq:
			taken = m.regs[in.Rs1] == m.regs[in.Rs2]
		case isa.Bne:
			taken = m.regs[in.Rs1] != m.regs[in.Rs2]
		case isa.Blt:
			taken = int64(m.regs[in.Rs1]) < int64(m.regs[in.Rs2])
		case isa.Bge:
			taken = int64(m.regs[in.Rs1]) >= int64(m.regs[in.Rs2])
		case isa.Jmp:
			taken = true
			next = int(in.Imm)
		case isa.Jal:
			taken = true
			m.setReg(in.Rd, uint64(idx+1))
			next = int(in.Imm)
		case isa.Jr:
			taken = true
			next = int(m.regs[in.Rs1])
			if next < 0 || next >= len(m.prog.Code) {
				panic(fmt.Sprintf("emu %q: jr to invalid index %d at pc %d", m.prog.Name, next, idx))
			}

		case isa.Halt:
			m.done = true
			next = idx

		default:
			panic(fmt.Sprintf("emu %q: unimplemented op %v at pc %d", m.prog.Name, in.Op, idx))
		}
		if taken && in.IsCondBranch() {
			next = int(in.Imm)
		}

		if rec != nil {
			rec.Seq = m.seq
			rec.Idx = idx
			rec.PC = isa.PC(idx)
			rec.Inst = in
			rec.Class = in.Class()
			rec.Taken = taken
			rec.Target = 0
			if in.IsCondBranch() {
				rec.Target = isa.PC(int(in.Imm))
			} else if in.IsControl() {
				rec.Target = isa.PC(next)
			}
			rec.NextPC = isa.PC(next)
			rec.Addr = addr
		}
		m.pc = next
		m.seq++
		n++
	}
	return n
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
