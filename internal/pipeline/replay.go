package pipeline

import (
	"errors"

	"repro/internal/emu"
)

// Replay is an InstStream serving a predecoded window trace (emu.Predecode
// + emu.StaticDecode) instead of stepping the functional emulator per
// instruction. When a *Replay is passed to RunContext, the fetch stage
// bypasses Next() entirely and reads the SoA buffer in place — the
// trace-driven front-end mode. Used as a plain InstStream it behaves
// identically, just without the fast path.
//
// A window trace covers the detailed portion of one sampling window plus a
// bounded slack; if the simulator's fetch stage runs past the end of the
// recording (it overfetches past the commit target by at most fetch-queue +
// ROB occupancy), Fallback supplies a live emulator stream positioned at
// the first unrecorded instruction. A trace ending in the program's Halt
// needs no fallback.
type Replay struct {
	Pre    *emu.Predecode
	Decode *emu.StaticDecode
	// Fallback builds the live continuation stream, positioned immediately
	// after the last recorded instruction. May be nil when Pre is halted.
	Fallback func() (InstStream, error)

	pos  int
	live InstStream
	err  error
}

// switchLive builds the live continuation; the error is remembered and
// surfaced by Err.
func (r *Replay) switchLive() error {
	if r.Fallback == nil {
		r.err = errors.New("pipeline: replay exhausted a non-halted trace with no fallback stream")
		return r.err
	}
	live, err := r.Fallback()
	if err != nil {
		r.err = err
		return err
	}
	r.live = live
	return nil
}

// Next implements InstStream. The simulator's trace fast path consumes
// records directly and shares the cursor, so Next picks up exactly where
// the fast path stopped.
func (r *Replay) Next() (emu.DynInst, bool) {
	if r.live != nil {
		return r.live.Next()
	}
	if r.err != nil {
		return emu.DynInst{}, false
	}
	if r.pos < r.Pre.Len() {
		var di emu.DynInst
		r.Pre.Fill(r.pos, r.Decode, &di)
		r.pos++
		return di, true
	}
	if r.Pre.Halted() {
		return emu.DynInst{}, false
	}
	if r.switchLive() != nil {
		return emu.DynInst{}, false
	}
	return r.live.Next()
}

// Err reports a fallback failure. The run loop treats a failed fallback as
// end-of-stream (the in-flight window drains normally); callers must check
// Err afterwards to distinguish a clean drain from a truncated one.
func (r *Replay) Err() error { return r.err }
