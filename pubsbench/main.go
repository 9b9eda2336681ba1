// Command pubsbench is the repository's end-to-end benchmark. It runs one
// named workload in a fresh process, times it, checks every output, and
// prints one JSON line of metrics last on standard output:
//
//	bash pubsbench/run.sh --workload detail-grid --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload and then walks each layer's entry points one level at a
// time with spans, reporting the per-layer metrics. --steady N runs every
// workload N times, one process per run, and prints each end-to-end
// metric's median and interquartile spread against its bound. README.md in
// this directory describes every metric and workload.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// defaultSeed is the seed whose results digests are committed in
// digests.json.
const defaultSeed = 1

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so neither one slow first-time path nor a few set-ups that the
// host preempted decide it. A set-up takes tens of milliseconds, and on a
// shared host the CPU's speed swings from one second to the next, so the
// repetitions span over a second of it.
const setupReps = 41

//go:embed digests.json
var digestsJSON []byte

// env is what a workload run receives: the seeded inputs' seed, the timed
// region's length, and a scratch directory inside the checkout.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	nproc   int
	dir     string
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	digest            string
	e2e               map[string]metric
	layer             map[string]metric
	diag              map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, diag: map[string]any{}}
}

// fail counts one failed operation and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "pubsbench: FAILED: "+format+"\n", args...)
}

type workloadFunc func(ctx context.Context, e env) (*result, error)

var workloads = map[string]workloadFunc{
	"detail-grid":     runDetailGrid,
	"sampled-cluster": runSampledCluster,
	"serve-mix":       runServeMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: detail-grid, sampled-cluster or serve-mix")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 12, "length of the timed region")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced layer walk")
	steady := flag.Int("steady", 0, "run every workload this many times and report each metric's spread")
	flag.Parse()

	if *steady > 0 {
		os.Exit(steadyMain(*steady, *name))
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "pubsbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "pubsbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pubsbench: scratch dir: %v\n", err)
		os.Exit(1)
	}
	e := env{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, nproc: runtime.NumCPU(), dir: dir}
	res, err := run(context.Background(), e)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pubsbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := checkDigest(*name, e.seed, res); err != nil {
		fmt.Fprintln(os.Stderr, "pubsbench:", err)
		os.Exit(1)
	}
	if err := printResult(res, e.trace); err != nil {
		fmt.Fprintln(os.Stderr, "pubsbench:", err)
		os.Exit(1)
	}
}

// checkDigest compares the run's results digest with the committed one on
// the default seed; a mismatch is a failed operation. Every seed's digest
// is printed so two commits can be compared on any seed.
func checkDigest(name string, seed uint64, res *result) error {
	res.diag["digest"] = res.digest
	if seed != defaultSeed {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if want[name] != res.digest {
		res.fail("results digest %s on seed %d, committed %q", res.digest, seed, want[name])
	}
	return nil
}

// printResult writes the diagnostics line and then the result line, which
// is always the last line of standard output.
func printResult(res *result, trace bool) error {
	metrics := res.e2e
	if trace {
		metrics = res.layer
	}
	diag, err := json.Marshal(res.diag)
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("diag %s\n%s\n", diag, out)
	return nil
}

// medianSetup times setup setupReps times and returns the median in
// seconds. setup(i) must leave the system ready for the first operation;
// teardown (untimed, may be nil) undoes it before the next repetition, so
// the last repetition's state is the one the run keeps.
func medianSetup(setup func(i int) error, teardown func()) (float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		// Each repetition starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// buildPrograms builds the named workload programs. The first repetition
// goes through workload.Program, filling the process-wide cache the layers
// read; later ones build afresh so every repetition does the same work.
func buildPrograms(names []string, first bool) error {
	for _, n := range names {
		if first {
			if _, err := workload.Program(n); err != nil {
				return err
			}
			continue
		}
		info, err := workload.ByName(n)
		if err != nil {
			return err
		}
		info.Build()
	}
	return nil
}

// procMark is the process state at the start of a timed region.
type procMark struct{ ms runtime.MemStats }

func markProcess() procMark {
	var m procMark
	runtime.ReadMemStats(&m.ms)
	return m
}

// processMetrics adds the process layer's numbers for the region since m.
func (m procMark) processMetrics(res *result) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	res.layer["process.alloc_mb"] = metric{float64(now.TotalAlloc-m.ms.TotalAlloc) / (1 << 20), "MB"}
	res.layer["process.gc_pause_ms"] = metric{float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6, "ms"}
	res.layer["process.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
}

// retainedHeapMB is the live heap after forced collections.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set from /proc (0 where it
// is unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// latencyMetrics adds the end-to-end latency metrics and the tail-sample
// diagnostics for a set of per-operation latencies in milliseconds.
func latencyMetrics(res *result, lat []float64) {
	res.e2e["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
	res.e2e["latency_p90_ms"] = metric{percentile(lat, 90), "ms"}
	res.diag["latency_samples"] = len(lat)
	res.diag["latency_beyond_p90"] = beyond(lat, 90)
	// Share of latencies that sit on a 100 ms grid: near 1 would mean the
	// numbers came from status polling rather than completion.
	onGrid := 0
	for _, l := range lat {
		if r := l - 100*float64(int(l/100)); r < 0.5 || r > 99.5 {
			onGrid++
		}
	}
	if len(lat) > 0 {
		res.diag["latency_on_100ms_grid"] = float64(onGrid) / float64(len(lat))
	}
}

// spanPath is where a traced run writes its spans.
func spanPath(name string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
}
