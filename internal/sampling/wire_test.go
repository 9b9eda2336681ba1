package sampling

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// wireTestPlan is the plan geometry the exchange tests share — the same
// windows/fast-forward shape the golden-variant tests pin, so a planned
// chess program carries several dirty-page snapshots and a real predecode
// trace through the codec.
func wireTestPlan() Config {
	return Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000}
}

// TestPlanCodecRoundTrip: encode → decode must reproduce the planned
// windows exactly — snapshots, predecode traces, placement — and encoding
// the decoded plan must reproduce the original wire bytes, so a plan can
// hop any number of nodes without drifting.
func TestPlanCodecRoundTrip(t *testing.T) {
	for _, wl := range []string{"chess", "goplay"} {
		t.Run(wl, func(t *testing.T) {
			prog := workload.MustProgram(wl)
			ws, err := PlanWindows(context.Background(), prog, wireTestPlan())
			if err != nil {
				t.Fatalf("PlanWindows: %v", err)
			}
			if len(ws) == 0 {
				t.Fatal("plan placed no windows")
			}
			enc, err := EncodePlan(ws)
			if err != nil {
				t.Fatalf("EncodePlan: %v", err)
			}
			dec, err := DecodePlan(enc)
			if err != nil {
				t.Fatalf("DecodePlan: %v", err)
			}
			if !reflect.DeepEqual(dec, ws) {
				t.Fatal("decoded plan differs from the planned windows")
			}
			if windowsBytes(dec) != windowsBytes(ws) {
				t.Fatalf("decoded plan accounts %d bytes, original %d", windowsBytes(dec), windowsBytes(ws))
			}
			reenc, err := EncodePlan(dec)
			if err != nil {
				t.Fatalf("re-encoding decoded plan: %v", err)
			}
			if !bytes.Equal(reenc, enc) {
				t.Fatal("re-encoded plan is not byte-identical to the original wire form")
			}
		})
	}
}

// TestPlanDecodeRejectsCorruption: the envelope's content hash (plus the
// framing checks in front of it) must turn any damaged payload into a hard
// error — a flipped bit anywhere, truncation at any point, a wrong magic
// or version — never into a silently wrong plan.
func TestPlanDecodeRejectsCorruption(t *testing.T) {
	prog := workload.MustProgram("chess")
	ws, err := PlanWindows(context.Background(), prog, wireTestPlan())
	if err != nil {
		t.Fatalf("PlanWindows: %v", err)
	}
	enc, err := EncodePlan(ws)
	if err != nil {
		t.Fatalf("EncodePlan: %v", err)
	}
	if _, err := DecodePlan(enc); err != nil {
		t.Fatalf("pristine payload must decode: %v", err)
	}

	// Single-byte corruption, swept across the envelope: magic, version,
	// hash, and a spread of offsets through the compressed body.
	offsets := []int{0, 7, 8, 9, 24, 40, 41, 100, len(enc) / 2, len(enc) - 1}
	for _, off := range offsets {
		if off >= len(enc) {
			continue
		}
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x5a
		if _, err := DecodePlan(mut); err == nil {
			t.Errorf("flipping byte %d of %d went undetected", off, len(enc))
		}
	}

	// Truncation at every region boundary and a few interior points.
	for _, n := range []int{0, 4, 8, 9, 20, 40, 41, 41 + (len(enc)-41)/2, len(enc) - 1} {
		if n >= len(enc) {
			continue
		}
		if _, err := DecodePlan(enc[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes went undetected", n, len(enc))
		}
	}

	// Wrong magic and unsupported version are rejected by name, before any
	// inflation work.
	mut := append([]byte(nil), enc...)
	copy(mut, "notaplan")
	if _, err := DecodePlan(mut); err == nil {
		t.Error("bad magic accepted")
	}
	mut = append([]byte(nil), enc...)
	mut[8] = 99
	if _, err := DecodePlan(mut); err == nil {
		t.Error("unsupported version accepted")
	}
}

// TestPeerPlanBitIdenticalAllVariants is the exchange's differential
// contract, run over the full golden-variant set: a sweep fed by a
// peer-fetched (encode → wire → decode) plan, sent with or without its
// predecoded traces, must produce results bit-identical to a self-planned
// serial run, for every issue-queue
// organisation and PUBS mode — and the adopting store must pay zero
// functional passes of its own.
func TestPeerPlanBitIdenticalAllVariants(t *testing.T) {
	ctx := context.Background()
	plan := wireTestPlan()

	// One "planner node": plans each workload once and serves the wire
	// form, exactly like a worker answering GET /v1/cluster/plan/{key} —
	// once with the predecoded traces and once without them (Pre cleared),
	// which the adopter must replay on live emulators.
	planner := NewStore()
	encoded := make(map[string][][]byte)
	serve := func(prog string) [][]byte {
		if data, ok := encoded[prog]; ok {
			return data
		}
		ws, err := planner.Windows(ctx, workload.MustProgram(prog), plan)
		if err != nil {
			t.Fatalf("planner windows(%s): %v", prog, err)
		}
		for _, sent := range [][]Window{ws, untraced(ws)} {
			data, err := EncodePlan(sent)
			if err != nil {
				t.Fatalf("EncodePlan(%s): %v", prog, err)
			}
			encoded[prog] = append(encoded[prog], data)
		}
		return encoded[prog]
	}

	for _, vc := range variantCases() {
		vc := vc
		t.Run(vc.name, func(t *testing.T) {
			prog := workload.MustProgram(vc.workload)
			want, err := Run(ctx, vc.cfg, prog, plan)
			if err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			for i, wire := range serve(vc.workload) {
				// A fresh "worker node" whose only plan source is the
				// peer's serialized plan.
				adopter := NewStore().WithPlanExchange(
					func(ctx context.Context, key string) ([]Window, bool) {
						if key != PlanKey(prog, plan) {
							t.Errorf("fetch for unexpected key %s", key)
							return nil, false
						}
						ws, err := DecodePlan(wire)
						if err != nil {
							t.Errorf("decoding served plan: %v", err)
							return nil, false
						}
						return ws, true
					}, nil)

				windows, err := adopter.Windows(ctx, prog, plan)
				if err != nil {
					t.Fatalf("adopter windows: %v", err)
				}
				if traced := windows[0].Pre != nil; traced != (i == 0) {
					t.Fatalf("wire %d: decoded windows traced=%v", i, traced)
				}
				got, err := sweepOne(ctx, vc.cfg, prog, plan, windows)
				if err != nil {
					t.Fatalf("RunWindows: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("wire %d: peer-planned result diverged from self-planned serial run:\n got %+v\nwant %+v", i, got, want)
				}
				st := adopter.Stats()
				if st.Plans != 0 || st.PeerPlans != 1 {
					t.Fatalf("adopter paid %d local passes, adopted %d plans; want 0 and 1", st.Plans, st.PeerPlans)
				}
			}
		})
	}
}

// TestAdoptedPlanEvictionKeepsHandedOutWindows: under a byte budget far
// below one plan, a store cycling through peer plans — fetched through its
// PlanSource or installed by Adopt — evicts freely, wire memos included,
// but windows already handed to callers stay valid and keep producing
// bit-identical results, and the in-budget invariant (MRU always resident)
// holds. Eviction is a cost knob, never a correctness boundary. Adopt over
// an in-flight plan changes nothing.
func TestAdoptedPlanEvictionKeepsHandedOutWindows(t *testing.T) {
	ctx := context.Background()
	plan := wireTestPlan()
	workloads := []string{"chess", "goplay", "matmul"}

	wires := make(map[string][]byte)
	for _, wl := range workloads {
		ws, err := PlanWindows(ctx, workload.MustProgram(wl), plan)
		if err != nil {
			t.Fatalf("PlanWindows(%s): %v", wl, err)
		}
		data, err := EncodePlan(ws)
		if err != nil {
			t.Fatalf("EncodePlan(%s): %v", wl, err)
		}
		wires[PlanKey(workload.MustProgram(wl), plan)] = data
	}
	decode := func(key string) ([]Window, bool) {
		data, ok := wires[key]
		if !ok {
			return nil, false
		}
		ws, err := DecodePlan(data)
		if err != nil {
			return nil, false
		}
		return ws, true
	}

	for _, adopt := range []bool{false, true} {
		// Budget of one byte: every peer plan exceeds it, so each new key
		// evicts the previous plan the moment it completes.
		var fetches int
		store := NewStoreBudget(1).WithPlanExchange(
			func(ctx context.Context, key string) ([]Window, bool) {
				fetches++
				return decode(key)
			}, nil)

		held := make(map[string][]Window)
		for _, wl := range workloads {
			prog := workload.MustProgram(wl)
			if adopt {
				key := PlanKey(prog, plan)
				ws, _ := decode(key)
				store.Adopt(key, ws, wires[key])
				if got, want := store.Stats().ResidentBytes, windowsBytes(ws)+int64(len(wires[key])); got != want {
					t.Fatalf("adopted %s: resident %d bytes, want %d (windows + wire)", wl, got, want)
				}
				if enc, ok := store.Encoded(key); !ok || &enc[0] != &wires[key][0] {
					t.Fatalf("adopted %s: Encoded did not serve the adopted wire bytes", wl)
				}
			}
			ws, err := store.Windows(ctx, prog, plan)
			if err != nil {
				t.Fatalf("store windows(%s): %v", wl, err)
			}
			held[wl] = ws
			if n := store.Len(); n != 1 {
				t.Fatalf("after %s: %d resident plans, want 1 (MRU only)", wl, n)
			}
		}
		st := store.Stats()
		if st.PeerPlans != uint64(len(workloads)) || st.Plans != 0 {
			t.Fatalf("stats: %d peer plans, %d local passes; want %d and 0", st.PeerPlans, st.Plans, len(workloads))
		}
		if st.Evictions != uint64(len(workloads)-1) {
			t.Fatalf("stats: %d evictions, want %d", st.Evictions, len(workloads)-1)
		}
		if adopt && (fetches != 0 || st.Hits != uint64(len(workloads))) {
			t.Fatalf("adopted plans: %d fetches, %d hits; want 0 and %d", fetches, st.Hits, len(workloads))
		}
		if adopt && store.Has(PlanKey(workload.MustProgram(workloads[0]), plan)) {
			t.Fatal("evicted adopted plan still resident")
		}

		// Every held plan — including the evicted ones — still drives a
		// sweep to the same result as a self-planned run.
		for _, wl := range workloads {
			prog := workload.MustProgram(wl)
			cfg := pipeline.PUBSConfig()
			got, err := sweepOne(ctx, cfg, prog, plan, held[wl])
			if err != nil {
				t.Fatalf("sweepOne(%s) on evicted plan: %v", wl, err)
			}
			want, err := Run(ctx, cfg, prog, plan)
			if err != nil {
				t.Fatalf("serial reference(%s): %v", wl, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: evicted-plan result diverged from self-planned run", wl)
			}
		}
	}

	// Adopt over an in-flight entry changes nothing: the fetch that owns
	// the entry lands, and the adopted windows and wire bytes are dropped.
	prog := workload.MustProgram(workloads[0])
	key := PlanKey(prog, plan)
	other := PlanKey(workload.MustProgram(workloads[1]), plan)
	entered, release := make(chan struct{}), make(chan struct{})
	store := NewStore().WithPlanExchange(
		func(ctx context.Context, k string) ([]Window, bool) {
			close(entered)
			<-release
			return decode(k)
		}, nil)
	type result struct {
		ws  []Window
		err error
	}
	done := make(chan result)
	go func() {
		ws, err := store.Windows(ctx, prog, plan)
		done <- result{ws, err}
	}()
	<-entered
	ws, _ := decode(other)
	store.Adopt(key, ws, wires[other])
	close(release)
	r := <-done
	want, _ := decode(key)
	if r.err != nil || !reflect.DeepEqual(r.ws, want) {
		t.Fatalf("Adopt over an in-flight plan replaced its windows (err %v)", r.err)
	}
	st := store.Stats()
	if st.PeerPlans != 1 || st.ResidentBytes != windowsBytes(want) {
		t.Fatalf("Adopt over an in-flight plan: %d peer plans, %d resident bytes; want 1 and %d", st.PeerPlans, st.ResidentBytes, windowsBytes(want))
	}
	if enc, ok := store.Encoded(key); !ok || !bytes.Equal(enc, wires[key]) {
		t.Fatal("Adopt over an in-flight plan replaced its wire form")
	}
}
