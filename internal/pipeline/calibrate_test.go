package pipeline

import (
	"context"
	"os"
	"testing"

	"repro/internal/workload"
)

// TestCalibrate prints base-vs-PUBS characteristics for every workload.
// It is a development aid, enabled with PUBS_CALIBRATE=1.
func TestCalibrate(t *testing.T) {
	ctx := context.Background()
	if os.Getenv("PUBS_CALIBRATE") == "" {
		t.Skip("set PUBS_CALIBRATE=1 to run the calibration sweep")
	}
	const warm, meas = 300_000, 700_000
	type row struct {
		name                    string
		baseIPC, pubsIPC        float64
		brMPKI, llcMPKI, unconf float64
		stallPri                uint64
	}
	rows := make([]row, 0, 14)
	ch := make(chan row, 14)
	for _, w := range workload.All() {
		w := w
		go func() {
			base, err := RunProgramContext(ctx, BaseConfig(), workload.MustProgram(w.Name), warm, meas)
			if err != nil {
				t.Error(err)
				ch <- row{name: w.Name}
				return
			}
			pubs, err := RunProgramContext(ctx, PUBSConfig(), workload.MustProgram(w.Name), warm, meas)
			if err != nil {
				t.Error(err)
				ch <- row{name: w.Name}
				return
			}
			ch <- row{
				name:    w.Name,
				baseIPC: base.IPC(), pubsIPC: pubs.IPC(),
				brMPKI: base.BranchMPKI(), llcMPKI: base.LLCMPKI(),
				unconf:   pubs.UnconfidentRate() * 100,
				stallPri: pubs.DispatchStallPriority,
			}
		}()
	}
	for range workload.All() {
		rows = append(rows, <-ch)
	}
	for _, w := range workload.All() {
		for _, r := range rows {
			if r.name != w.Name || r.baseIPC == 0 {
				continue
			}
			t.Logf("%-10s base=%.3f pubs=%.3f speedup=%+6.2f%% brMPKI=%6.1f llcMPKI=%6.2f unconf=%5.1f%% stallPri=%d",
				r.name, r.baseIPC, r.pubsIPC, (r.pubsIPC/r.baseIPC-1)*100, r.brMPKI, r.llcMPKI, r.unconf, r.stallPri)
		}
	}
}
