package isa

import "testing"

// The switch-based predicates the op table replaced, kept verbatim as the
// oracle TestOpTableMatchesSwitches checks the table against.

func refClass(in Inst) Class {
	switch in.Op {
	case Mul, Div, Rem:
		return ClassIntMulDiv
	case Ld, Fld:
		return ClassLoad
	case St, Fst:
		return ClassStore
	case Fadd, Fsub, Fmul, Fdiv, Fclt, Fcvti, Fcvtf:
		return ClassFPU
	case Nop, Halt, Jmp, Jal:
		return ClassNone
	case Beq, Bne, Blt, Bge, Jr:
		return ClassIntALU
	default:
		return ClassIntALU
	}
}

func refIsCondBranch(in Inst) bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge:
		return true
	}
	return false
}

func refIsControl(in Inst) bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge, Jmp, Jal, Jr:
		return true
	}
	return false
}

func refIsLoad(in Inst) bool  { return in.Op == Ld || in.Op == Fld }
func refIsStore(in Inst) bool { return in.Op == St || in.Op == Fst }
func refIsMem(in Inst) bool   { return refIsLoad(in) || refIsStore(in) }

func refHasDest(in Inst) bool {
	switch in.Op {
	case Nop, Halt, St, Fst, Beq, Bne, Blt, Bge, Jmp, Jr:
		return false
	}
	return in.Rd != RZero
}

func refHasImmOperand(in Inst) bool {
	switch in.Op {
	case Addi, Andi, Ori, Xori, Shli, Shri, Srai, Slti, Ld, St, Fld, Fst:
		return true
	}
	return false
}

func refSources(in Inst) (srcs [2]Reg, n int) {
	switch in.Op {
	case Nop, Halt, Jmp, Jal:
		return srcs, 0
	case Addi, Andi, Ori, Xori, Shli, Shri, Srai, Slti, Ld, Fld, Fcvti, Fcvtf, Jr:
		srcs[0] = in.Rs1
		return srcs, 1
	case St, Fst:
		srcs[0] = in.Rs1
		srcs[1] = in.Rs2
		return srcs, 2
	default:
		srcs[0] = in.Rs1
		srcs[1] = in.Rs2
		return srcs, 2
	}
}

func refLatency(in Inst) int64 {
	switch in.Op {
	case Mul:
		return 3
	case Div, Rem:
		return 20
	case Fadd, Fsub, Fclt, Fcvti, Fcvtf:
		return 3
	case Fmul:
		return 4
	case Fdiv:
		return 12
	default:
		return 1
	}
}

func refPipelined(in Inst) bool {
	switch in.Op {
	case Div, Rem, Fdiv:
		return false
	}
	return true
}

// TestOpTableMatchesSwitches checks every table-driven predicate against
// the switch it replaced, for all 256 Op values (defined ones and the
// out-of-range rest) and a zero, an integer and an FP destination.
func TestOpTableMatchesSwitches(t *testing.T) {
	for op := 0; op < 256; op++ {
		for _, rd := range []Reg{RZero, R(7), F(3)} {
			in := Inst{Op: Op(op), Rd: rd, Rs1: R(5), Rs2: F(9), Imm: 12}
			check := func(name string, got, want any) {
				if got != want {
					t.Errorf("%v (rd %v) %s = %v, switch says %v", in.Op, rd, name, got, want)
				}
			}
			check("Class", in.Class(), refClass(in))
			check("IsCondBranch", in.IsCondBranch(), refIsCondBranch(in))
			check("IsControl", in.IsControl(), refIsControl(in))
			check("IsLoad", in.IsLoad(), refIsLoad(in))
			check("IsStore", in.IsStore(), refIsStore(in))
			check("IsMem", in.IsMem(), refIsMem(in))
			check("HasDest", in.HasDest(), refHasDest(in))
			check("HasImmOperand", in.HasImmOperand(), refHasImmOperand(in))
			check("Latency", in.Latency(), refLatency(in))
			check("Pipelined", in.Pipelined(), refPipelined(in))
			srcs, n := in.Sources()
			wantSrcs, wantN := refSources(in)
			check("Sources", [3]any{srcs[0], srcs[1], n}, [3]any{wantSrcs[0], wantSrcs[1], wantN})
		}
	}
}
