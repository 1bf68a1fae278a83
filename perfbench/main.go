// Command perfbench is the repository's benchmark: one command that
// runs one workload against the public surfaces users call —
// chordal.Runner.Run, chordal.OpenStream/Push/Close, and the chordald
// HTTP API on an in-process service.New server — checks every output,
// and prints every metric by name with its unit. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// no tracing. With -trace 1 the run alternates untraced operations with
// traced ones, which compose the calls into each layer's public
// functions from this package's own code and record a span around each;
// the metrics are then the per-layer metrics, and the spans are written
// to .bench_build/trace/<workload>.spans.csv when the run ends.
//
// Run it from the repository root through run.sh, which builds it from
// the checkout's sources:
//
//	bash perfbench/run.sh --workload kernel-ws --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload service-bio --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload stream-ingest --steady 5 --seconds 20
//
// The last form is the steadiness mode: two sets of runs on distinct
// seeds, reporting per end-to-end metric whether the two medians agree
// within the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"chordal/internal/tune"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input to a size that runs in well under a
	// second; the tests use it.
	tiny bool
	// dir is the run's scratch directory (output graphs); it is removed
	// when the run ends.
	dir string
}

// workload is one traffic shape the benchmark can run.
type workload struct {
	name string
	// why is the one-line reason the workload exists.
	why string
	// heavy and light name the layers the workload is expected to load
	// most and least; the traced run checks them against the measured
	// shares.
	heavy, light []string
	// setup prepares a fresh instance: the program set-up a user pays
	// (input preparation, server start). It is what setup_s times, in a
	// fresh process.
	setup func(cfg config) (bench, error)
}

// bench is a prepared workload.
type bench interface {
	// reference computes what the outputs are checked against; it runs
	// once, after setup and before measuring.
	reference(ctx context.Context) error
	// measure runs the closed loop until the deadline (finishing the
	// operations in flight) and returns what it observed. With a tracer,
	// every other operation is traced.
	// mem.take marks the end of each operation (round, for the service).
	measure(ctx context.Context, deadline time.Time, tr *tracer, mem *memSampler) (*result, error)
	// close releases the instance's resources.
	close()
}

// result is what one measured run observed.
type result struct {
	tally tally
	// window is the time from the first operation's start to the last
	// one's end.
	window time.Duration
	// opMs holds the untraced operations' latencies; tracedMs the traced
	// ones'.
	opMs, tracedMs []float64
	// deltaUs holds per-step latencies where the workload has steps (one
	// stream Push each).
	deltaUs []float64
	// keptPct is the edge retention of the checked outputs.
	keptPct float64
	// peakMB holds the peak resident memory of each operation (round).
	peakMB []float64
	// layer holds per-layer metrics the workload measured itself
	// (counts, ratios, service percentiles); span-derived times are added
	// from the trace.
	layer map[string]float64
}

var workloads = []workload{kernelWS, shardedKTree, streamIngest, serviceBio}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many fresh processes setup_s is the median of.
const setupRuns = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag, steady int
	var setupProbe bool
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, "|"))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "use tiny inputs (smoke runs)")
	fs.IntVar(&steady, "steady", 0, "run the workload in two sets of this many runs and compare medians")
	fs.BoolVar(&setupProbe, "setup-probe", false, "internal: perform set-up only and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(names, "|"))
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.dir = filepath.Join(wd, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	switch {
	case setupProbe:
		tune.Current()
		b, err := w.setup(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		b.close()
		return 0
	case steady > 0:
		return runSteady(cfg, steady, stdout, stderr)
	}
	return runOnce(w, cfg, stdout, stderr)
}

// runOnce measures one run of w and prints its report.
func runOnce(w workload, cfg config, stdout, stderr io.Writer) int {
	t0 := time.Now()
	prof := tune.Current()
	calibrate := time.Since(t0)

	// Half the set-up probes run before the measured window and half
	// after it, so setup_s spans the run rather than one moment of it.
	setupSecs, err := setupProbes(cfg, setupRuns/2)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	ctx := context.Background()
	b, err := w.setup(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	defer b.close()
	if err := b.reference(ctx); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference:", err)
		return 1
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	mem := startMemSampler()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	res, err := b.measure(ctx, deadline, tr, mem)
	mem.close()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: measure:", err)
		return 1
	}
	after, err := setupProbes(cfg, setupRuns-setupRuns/2)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	setupS := median(append(setupSecs, after...))

	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%t: %s\n", w.name, cfg.seed, cfg.seconds, cfg.trace, w.why)
	fmt.Fprintf(stdout, "# conditions %s\n", conditions(prof, cfg))
	e2e := endToEnd(res, setupS)
	printTable(stdout, "end-to-end", e2eMetrics, e2e)
	printWorkloadScoped(stdout, w.name, res)
	metrics := e2e
	specs := e2eMetrics
	if tr != nil {
		spans := tr.snapshot()
		path := filepath.Join(filepath.Dir(filepath.Dir(cfg.dir)), "trace", w.name+".spans.csv")
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", len(spans), path)
		sum := summarize(spans)
		metrics = perLayer(res, sum, ms(calibrate))
		specs = layerMetrics
		printTable(stdout, "per-layer", specs, metrics)
		printShares(stdout, sum, w)
	}
	out := map[string]any{
		"correct":   res.tally.checkFailed == 0,
		"attempted": res.tally.attempted,
		"failed":    res.tally.failed(),
		"metrics":   jsonMetrics(specs, metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.tally.checkFailed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d outputs failed their checks\n", res.tally.checkFailed)
		return 1
	}
	if res.tally.attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation completed")
		return 1
	}
	return 0
}

// setupProbes returns the wall times, in seconds, of n fresh processes
// that each start, calibrate (tune), prepare the workload's inputs,
// start its server if it has one, and exit.
func setupProbes(cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--setup-probe", "--workload", cfg.workload, fmt.Sprintf("--seed=%d", cfg.seed)}
	if cfg.tiny {
		args = append(args, "--tiny")
	}
	var secs []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// conditions stamps a result with what it was measured under, as JSON.
func conditions(prof tune.Profile, cfg config) string {
	c := map[string]any{
		"cpus":           runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"tunedGrain":     prof.Grain,
		"tunedThreshold": prof.DegreeThreshold,
		"tuneSource":     prof.Source,
		"seed":           cfg.seed,
		"commit":         commit(),
		"sourceDigest":   sourceDigest(),
		"workload":       cfg.workload,
		"seconds":        cfg.seconds,
		"comparableWith": "perfbench runs at the same cpus only; the BENCH_*.json files were recorded at cpus:1",
	}
	b, _ := json.Marshal(c) // a map of plain values always marshals
	return string(b)
}

// commit returns the checked-out commit when the working directory is a
// git checkout, or "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources (everything outside this
// benchmark and the build directory), so results from checkouts without
// git history still name the code they measured.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == "perfbench" || path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := uint64(14695981039346656037)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, c := range append([]byte(f), b...) {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// minOps is the least number of operations (service rounds) a run
// makes whatever its deadline: two when tracing, so that one of them is
// traced, else one.
func minOps(tr *tracer) int {
	if tr != nil {
		return 2
	}
	return 1
}

// errCheck marks an output that failed its check.
var errCheck = errors.New("output check failed")
