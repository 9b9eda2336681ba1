package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one run's parsed standard output.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	diag      map[string]any
}

// parseRunOutput reads the result line, which is the last, and the diag
// line before it.
func parseRunOutput(out []byte) (runOutput, error) {
	var r runOutput
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	for _, ln := range lines {
		if d, ok := strings.CutPrefix(ln, "diag "); ok {
			if err := json.Unmarshal([]byte(d), &r.diag); err != nil {
				return r, fmt.Errorf("diag line: %w", err)
			}
		}
	}
	return r, nil
}

// steadyMain runs each workload n times, seeds 1..n, one process per run,
// and prints every end-to-end metric's median and interquartile spread
// against its bound in BENCHMARK.json, then the checks for the ways an
// earlier version of this benchmark was too noisy. It returns 1 when a run
// fails or a gated spread exceeds its bound.
func steadyMain(n int, only string) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsbench: run --steady from the checkout root:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "pubsbench: BENCHMARK.json:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsbench:", err)
		return 2
	}
	status := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		var runs []runOutput
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var r runOutput
			if err == nil {
				r, err = parseRunOutput(out)
			}
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", w.Name, seed, err)
				status = 1
				continue
			}
			if !r.Correct {
				fmt.Printf("%s seed %d: %d of %d operations failed\n", w.Name, seed, r.Failed, r.Attempted)
				status = 1
			}
			runs = append(runs, r)
		}
		if !steadyReport(w.Name, spec, runs) {
			status = 1
		}
	}
	return status
}

// steadyReport prints one workload's spread table and failure-mode
// checks, and reports whether every gated spread is within its bound.
func steadyReport(name string, spec benchSpec, runs []runOutput) bool {
	ok := true
	fmt.Printf("\n%s: %d runs of %d s\n", name, len(runs), spec.RunSeconds)
	fmt.Printf("  %-17s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[m.Name].Value)
		}
		q1, q3 := quartiles(xs)
		sp := spread(xs)
		verdict := "steady: below a third of the bound"
		switch {
		case sp > m.Bound:
			verdict = "NOISY: above the bound"
			ok = false
		case sp > m.Bound/3:
			verdict = "within the bound, above a third of it"
		}
		fmt.Printf("  %-17s %12.4f %12.4f %12.4f %7.2f%% %6.1f%%  %s\n",
			m.Name, median(xs), q1, q3, 100*sp, 100*m.Bound, verdict)
		fmt.Printf("  %17s %v\n", "runs:", xs)
	}
	diag := func(key string) []float64 {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.diag[key].(float64); ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	if xs := diag("latency_beyond_p90"); len(xs) > 0 {
		fmt.Printf("  tail samples: at least %.0f latencies beyond p90 in every run (a tail percentile needs 10)\n", slices.Min(xs))
	}
	if xs := diag("latency_on_100ms_grid"); len(xs) > 0 {
		fmt.Printf("  polling: at most %.1f%% of a run's latencies on a 100 ms grid (status polling would put nearly all there)\n", 100*slices.Max(xs))
	}
	if xs := diag("slot_busy_ratio"); len(xs) > 0 {
		fmt.Printf("  saturation: the daemon's slots were busy at most %.0f%% of the open loop\n", 100*slices.Max(xs))
	}
	if xs := diag("idle_slot_ratio"); len(xs) > 0 {
		fmt.Printf("  tail imbalance: median %.2f%% of slot time idle at the campaign tail\n", 100*median(xs))
	}
	fmt.Println("  memory: the retained heap after a forced GC is gated; GC-timed peak RSS is a per-layer number only")
	return ok
}
