package emu

import "repro/internal/isa"

// Predecode is an immutable, flat (structure-of-arrays) record of one
// window's committed dynamic instruction stream: per record the static
// instruction index, the next static index actually fetched, the branch
// outcome, and the effective memory address. Everything else a DynInst
// carries — the decoded instruction, its class, the taken-path target —
// is a pure function of the static code and these four columns, so Fill
// reconstructs the exact DynInst the functional emulator produced without
// re-executing it. A Predecode is written once by the window planner and
// then only read, which is what lets one buffer feed any number of
// concurrent machine variants.
type Predecode struct {
	idx      []int32  // static instruction index per record
	next     []int32  // static index fetched next (NextPC / 4)
	flags    []uint8  // bit 0: branch/jump taken
	addr     []uint64 // effective address (loads/stores; 0 otherwise)
	startSeq uint64   // Seq of record 0
	halted   bool     // last record is the program's Halt: nothing follows
}

const predTaken uint8 = 1 << 0

// NewPredecode returns an empty buffer with capacity for n records.
func NewPredecode(n int) *Predecode {
	return &Predecode{
		idx:   make([]int32, 0, n),
		next:  make([]int32, 0, n),
		flags: make([]uint8, 0, n),
		addr:  make([]uint64, 0, n),
	}
}

// Append records one executed instruction. Appending a Halt marks the
// buffer complete: the recorded stream is the program's entire remainder.
func (p *Predecode) Append(di DynInst) {
	if len(p.idx) == 0 {
		p.startSeq = di.Seq
	}
	p.idx = append(p.idx, int32(di.Idx))
	p.next = append(p.next, int32(di.NextPC/4))
	var f uint8
	if di.Taken {
		f |= predTaken
	}
	p.flags = append(p.flags, f)
	p.addr = append(p.addr, di.Addr)
	if di.Inst.Op == isa.Halt {
		p.halted = true
	}
}

// Len returns the number of recorded instructions.
func (p *Predecode) Len() int { return len(p.idx) }

// Halted reports whether the record ends with the program's Halt — when
// true, no instruction follows the last record and a consumer that drains
// the buffer needs no live-emulator continuation.
func (p *Predecode) Halted() bool { return p.halted }

// Bytes returns the buffer's resident memory footprint — the accounting
// unit for trace-store byte budgets.
func (p *Predecode) Bytes() int64 {
	return int64(cap(p.idx))*4 + int64(cap(p.next))*4 + int64(cap(p.flags)) + int64(cap(p.addr))*8
}

// PCAt returns record i's fetch address without materialising the DynInst
// (the fetch stage needs the PC for the I-cache check before it commits to
// consuming the record).
func (p *Predecode) PCAt(i int) uint64 { return isa.PC(int(p.idx[i])) }

// StaticDecode is a program's static code, shared by every replay of its
// windows. Decoding an instruction is a table load (isa.Inst.Class), so
// nothing more is cached per static instruction.
type StaticDecode struct {
	Code []isa.Inst
}

// NewStaticDecode wraps a program's static code.
func NewStaticDecode(code []isa.Inst) *StaticDecode {
	return &StaticDecode{Code: code}
}

// Fill reconstructs record i into di, bit-identically to the DynInst
// Machine.Step returned when the record was made. The reconstruction rules
// mirror Step exactly: a Halt renames NextPC to its own PC; a conditional
// branch's target is its immediate whether or not it was taken; any other
// control instruction's target is where it actually went.
func (p *Predecode) Fill(i int, sd *StaticDecode, di *DynInst) {
	idx := int(p.idx[i])
	in := sd.Code[idx]
	di.Seq = p.startSeq + uint64(i)
	di.Idx = idx
	di.PC = isa.PC(idx)
	di.Inst = in
	di.Class = in.Class()
	di.Taken = p.flags[i]&predTaken != 0
	di.Addr = p.addr[i]
	if in.Op == isa.Halt {
		di.Target = 0
		di.NextPC = di.PC
		return
	}
	di.NextPC = isa.PC(int(p.next[i]))
	switch {
	case in.IsCondBranch():
		di.Target = isa.PC(int(in.Imm))
	case in.IsControl():
		di.Target = di.NextPC
	default:
		di.Target = 0
	}
}
