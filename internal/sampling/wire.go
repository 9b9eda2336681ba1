package sampling

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Plan wire format — the payload of the cluster's plan-exchange endpoints
// (GET/POST /v1/cluster/plan/{key}). A plan travels as:
//
//	magic   "pubsplan"                                    8 bytes
//	version u8 (currently 1)                              1 byte
//	sum     SHA-256 of the uncompressed window payload   32 bytes
//	body    flate-compressed window payload               rest
//
// The window payload is, little-endian:
//
//	u64 window count, then per window:
//	  u64 Index
//	  u64 StartInst
//	  u8  hasSnap (always 1 today), snapshot wire bytes (emu.DecodeSnapshot)
//	  u8  hasPre, predecode wire bytes when 1 (emu.DecodePredecode)
//
// The hash is over the *uncompressed* payload, so DecodePlan verifies the
// exact bytes it is about to materialize into snapshots and traces —
// a flipped bit anywhere in transit or at rest is a hard error, never a
// silently wrong simulation. The plan key itself (PlanKey) addresses the
// content the plan was computed *from*; the envelope hash protects the
// content the plan *is*.

const (
	planMagic   = "pubsplan"
	planVersion = 1

	// maxPlanPayloadBytes caps what DecodePlan will inflate — a fuse
	// against corrupt or hostile length fields, far above any real plan
	// (a window is dirty pages plus ~17 B per detailed instruction).
	maxPlanPayloadBytes = 1 << 30
)

// PlanKey exposes the store's content address for a (program, plan
// geometry) pair — the key serialized plans are exchanged under.
func PlanKey(prog *isa.Program, plan Config) string {
	return planKey(digestProgram(prog), plan)
}

// EncodePlan serializes placed windows into the flate-compressed,
// content-hash-sealed wire format.
func EncodePlan(ws []Window) ([]byte, error) {
	size := 8
	for _, w := range ws {
		size += 8 + 8 + 1 + 1
		if w.Snap != nil {
			size += w.Snap.WireBytes()
		}
		if w.Pre != nil {
			size += w.Pre.WireBytes()
		}
	}
	payload := make([]byte, 0, size)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(ws)))
	for i, w := range ws {
		if w.Snap == nil {
			return nil, fmt.Errorf("sampling: window %d has no snapshot; plan is not serializable", i)
		}
		payload = binary.LittleEndian.AppendUint64(payload, uint64(w.Index))
		payload = binary.LittleEndian.AppendUint64(payload, w.StartInst)
		payload = append(payload, 1)
		payload = w.Snap.AppendBinary(payload)
		if w.Pre != nil {
			payload = append(payload, 1)
			payload = w.Pre.AppendBinary(payload)
		} else {
			payload = append(payload, 0)
		}
	}
	sum := sha256.Sum256(payload)

	var buf bytes.Buffer
	buf.Grow(len(payload)/4 + 64)
	buf.WriteString(planMagic)
	buf.WriteByte(planVersion)
	buf.Write(sum[:])
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("sampling: plan compressor: %w", err)
	}
	if _, err := zw.Write(payload); err != nil {
		return nil, fmt.Errorf("sampling: compressing plan: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("sampling: compressing plan: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePlan inflates and verifies a serialized plan. Any mismatch —
// truncation, bit corruption, a tampered length field — fails before a
// single window is handed out.
func DecodePlan(data []byte) ([]Window, error) {
	const header = len(planMagic) + 1 + sha256.Size
	if len(data) < header {
		return nil, fmt.Errorf("sampling: plan payload too short (%d bytes)", len(data))
	}
	if string(data[:len(planMagic)]) != planMagic {
		return nil, errors.New("sampling: not a serialized plan (bad magic)")
	}
	if v := data[len(planMagic)]; v != planVersion {
		return nil, fmt.Errorf("sampling: unsupported plan version %d", v)
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[len(planMagic)+1:header])

	zr := flate.NewReader(bytes.NewReader(data[header:]))
	defer zr.Close()
	payload, err := io.ReadAll(io.LimitReader(zr, maxPlanPayloadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("sampling: inflating plan: %w", err)
	}
	if len(payload) > maxPlanPayloadBytes {
		return nil, fmt.Errorf("sampling: plan payload exceeds %d bytes", maxPlanPayloadBytes)
	}
	if sha256.Sum256(payload) != sum {
		return nil, errors.New("sampling: plan content hash mismatch")
	}

	if len(payload) < 8 {
		return nil, errors.New("sampling: truncated plan payload")
	}
	n := binary.LittleEndian.Uint64(payload)
	payload = payload[8:]
	// A window's fixed framing alone is 18 bytes; reject counts the
	// remaining payload cannot possibly hold.
	if n > uint64(len(payload))/18 {
		return nil, fmt.Errorf("sampling: plan window count %d exceeds payload", n)
	}
	ws := make([]Window, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(payload) < 18 {
			return nil, fmt.Errorf("sampling: truncated plan window %d", i)
		}
		w := Window{
			Index:     int(binary.LittleEndian.Uint64(payload)),
			StartInst: binary.LittleEndian.Uint64(payload[8:]),
		}
		hasSnap := payload[16]
		payload = payload[17:]
		if hasSnap == 0 {
			return nil, fmt.Errorf("sampling: plan window %d has no snapshot", i)
		}
		snap, rest, err := emu.DecodeSnapshot(payload)
		if err != nil {
			return nil, fmt.Errorf("sampling: plan window %d: %w", i, err)
		}
		w.Snap, payload = snap, rest
		if len(payload) < 1 {
			return nil, fmt.Errorf("sampling: truncated plan window %d", i)
		}
		hasPre := payload[0]
		payload = payload[1:]
		if hasPre != 0 {
			pre, rest, err := emu.DecodePredecode(payload)
			if err != nil {
				return nil, fmt.Errorf("sampling: plan window %d: %w", i, err)
			}
			w.Pre, payload = pre, rest
		}
		ws = append(ws, w)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("sampling: %d trailing bytes after plan windows", len(payload))
	}
	return ws, nil
}
