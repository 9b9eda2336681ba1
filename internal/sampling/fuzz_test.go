package sampling

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"io"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// sealPlanPayload wraps an uncompressed window payload in a valid plan
// envelope (magic, version, content hash, flate body), so fuzzed payloads
// get past the hash check and reach the window and emu decoders.
func sealPlanPayload(t testing.TB, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.WriteString(planMagic)
	buf.WriteByte(planVersion)
	buf.Write(sum[:])
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(payload)
	zw.Close()
	return buf.Bytes()
}

// FuzzDecodePlan: DecodePlan reads bytes a peer sent, so arbitrary input
// must never panic it; it either fails or yields windows that survive an
// encode/decode round trip unchanged. With sealed set, the input is the uncompressed payload
// and the fuzzer seals it first: random bytes almost never carry a
// matching SHA-256, and without sealing the structural decoders behind the
// hash would go unexercised.
func FuzzDecodePlan(f *testing.F) {
	// Real encoded plans of a program with one data page, so the seeds
	// stay small enough to mutate quickly: one with predecode traces, and
	// the same windows with Pre cleared (snapshots only, as a peer may send).
	b := asm.New("fuzz-seed")
	data := b.Words(1, 2, 3, 4)
	ctr, addr, v := isa.R(2), isa.R(3), isa.R(4)
	b.Li(ctr, 5_000)
	b.Li(addr, int64(data))
	b.Label("loop")
	b.Ld(v, addr, 8)
	b.Add(v, v, ctr)
	b.St(v, addr, 0)
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, isa.RZero, "loop")
	b.Halt()
	prog := b.MustBuild()
	plan := Config{Windows: 2, FastForward: 1_000, Warmup: 20, Measure: 30}
	traced, err := PlanWindows(context.Background(), prog, plan)
	if err != nil || len(traced) != plan.Windows {
		f.Fatalf("seed plan: %d windows, err %v", len(traced), err)
	}
	for _, ws := range [][]Window{traced, untraced(traced)} {
		enc, err := EncodePlan(ws)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc[len(planMagic)+1+sha256.Size:])))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, false)
		f.Add(enc[:len(enc)/2], false)
		f.Add(payload, true)
		f.Add(payload[:len(payload)/2], true)
	}
	f.Add([]byte(planMagic), false)
	f.Add([]byte{}, true)
	// A window count far beyond what the payload could hold.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, true)

	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			data = sealPlanPayload(t, data)
		}
		ws, err := DecodePlan(data)
		if err != nil {
			return
		}
		enc, err := EncodePlan(ws)
		if err != nil {
			t.Fatalf("decoded plan does not re-encode: %v", err)
		}
		again, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, ws) {
			t.Fatal("plan changed across an encode/decode round trip")
		}
	})
}
