package emu

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// fuzzSeedProgram stores into a small data segment in a loop, so a
// snapshot taken mid-run carries one dirty page and a predecode buffer
// records loads, stores and taken branches.
func fuzzSeedProgram() *isa.Program {
	b := asm.New("fuzz-seed")
	data := b.Words(1, 2, 3, 4)
	ctr, addr, v := isa.R(2), isa.R(3), isa.R(4)
	b.Li(ctr, 50)
	b.Li(addr, int64(data))
	b.Label("loop")
	b.Ld(v, addr, 8)
	b.Add(v, v, ctr)
	b.St(v, addr, 0)
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, isa.RZero, "loop")
	b.Halt()
	return b.MustBuild()
}

// FuzzDecodeSnapshot: DecodeSnapshot reads bytes a peer or a plan file
// supplied, so arbitrary input must never panic it, and every snapshot it
// accepts must survive AppendBinary and a second decode unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	prog := fuzzSeedProgram()
	m := MustNew(prog)
	f.Add(m.Snapshot().AppendBinary(nil)) // fresh: no dirty page
	m.Run(40)
	mid := m.Snapshot().AppendBinary(nil)
	f.Add(mid)
	f.Add(mid[:len(mid)/2])
	m.Run(1_000)
	f.Add(append(m.Snapshot().AppendBinary(nil), 0xAB)) // halted, trailing byte
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("remainder %d bytes longer than the input %d", len(rest), len(data))
		}
		enc := s.AppendBinary(nil)
		if len(enc) != s.WireBytes() {
			t.Fatalf("encoding is %d bytes, WireBytes says %d", len(enc), s.WireBytes())
		}
		again, tail, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if len(tail) != 0 {
			t.Fatalf("re-encoded snapshot left %d bytes undecoded", len(tail))
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatal("snapshot changed across AppendBinary and decode")
		}
	})
}

// FuzzDecodePredecode: the same contract for the predecode trace codec.
func FuzzDecodePredecode(f *testing.F) {
	prog := fuzzSeedProgram()
	m := MustNew(prog)
	m.Run(10)
	pre := NewPredecode(64)
	for i := 0; i < 64; i++ {
		di, ok := m.Step()
		if !ok {
			break
		}
		pre.Append(di)
	}
	enc := pre.AppendBinary(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	halted := NewPredecode(1_000)
	for {
		di, ok := m.Step()
		if !ok {
			break
		}
		halted.Append(di)
	}
	f.Add(append(halted.AppendBinary(nil), 0xCD)) // trailing byte
	f.Add(NewPredecode(0).AppendBinary(nil))
	// A record count far beyond what the payload could hold.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := DecodePredecode(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("remainder %d bytes longer than the input %d", len(rest), len(data))
		}
		enc := p.AppendBinary(nil)
		if len(enc) != p.WireBytes() {
			t.Fatalf("encoding is %d bytes, WireBytes says %d", len(enc), p.WireBytes())
		}
		again, tail, err := DecodePredecode(enc)
		if err != nil {
			t.Fatalf("re-encoded predecode buffer does not decode: %v", err)
		}
		if len(tail) != 0 {
			t.Fatalf("re-encoded predecode buffer left %d bytes undecoded", len(tail))
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatal("predecode buffer changed across AppendBinary and decode")
		}
	})
}
