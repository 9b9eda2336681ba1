package pipeline

// Closed-form advancement of the xorshift64 state (DESIGN.md §14).
//
// rand01's state transition is linear over GF(2): each of the three
// shift-xor steps is a linear map on the 64-bit state vector, so one RNG
// step is multiplication by a fixed 64×64 bit matrix M, and k steps are
// multiplication by M^k. skipCycles used to replay a k-cycle
// weighted-dispatch stall span with a k-iteration loop; with the jump
// table below it decomposes k into powers of two and applies the
// precomputed M^(2^i) matrices — O(log k) matrix applications, each 64
// conditional XORs — while producing the bit-identical state the loop
// would have.
//
// A matrix is stored column-major as [64]uint64: column b is the image of
// basis vector e_b (the state with only bit b set). Applying a matrix to a
// state XORs together the columns selected by the state's set bits.

// rngStep is the scalar xorshift64 transition, shared by rand01 and the
// table construction so the two can never drift.
func rngStep(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// rngMatrix is a GF(2) linear map on the 64-bit state, column-major.
type rngMatrix [64]uint64

// apply multiplies the matrix by the state vector.
func (m *rngMatrix) apply(x uint64) uint64 {
	var y uint64
	for b := 0; x != 0; b++ {
		if x&1 != 0 {
			y ^= m[b]
		}
		x >>= 1
	}
	return y
}

// mul sets dst = m ∘ n (first n, then m).
func (m *rngMatrix) mul(n *rngMatrix) rngMatrix {
	var dst rngMatrix
	for b := 0; b < 64; b++ {
		dst[b] = m.apply(n[b])
	}
	return dst
}

// rngJumps[i] is M^(2^i): applying it advances the RNG 2^i steps.
var rngJumps = computeRNGJumps()

func computeRNGJumps() [64]rngMatrix {
	var jumps [64]rngMatrix
	// M itself: image of each basis vector under one step.
	for b := 0; b < 64; b++ {
		jumps[0][b] = rngStep(uint64(1) << b)
	}
	// Repeated squaring: M^(2^(i+1)) = M^(2^i) ∘ M^(2^i).
	for i := 1; i < 64; i++ {
		jumps[i] = jumps[i-1].mul(&jumps[i-1])
	}
	return jumps
}

// jumpRNG advances the xorshift64 state k steps in O(log k), bit-identical
// to k calls of rngStep. k must be non-negative.
func jumpRNG(x uint64, k int64) uint64 {
	for i := 0; k != 0; i++ {
		if k&1 != 0 {
			x = rngJumps[i].apply(x)
		}
		k >>= 1
	}
	return x
}
