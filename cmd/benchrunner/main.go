// Command benchrunner regenerates the paper's evaluation artifacts:
// Table I, Figures 2-7, Table II and the §V chordal-edge percentages.
// It can also benchmark the full pipeline on any input source.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp fig4 -scales 14,15,16 -maxprocs 8
//	benchrunner -exp table2 -bio-downscale 4 -trials 5
//	benchrunner -graph rmat-g:18 -maxprocs 8    # worker sweep on one input
//	benchrunner -graph web.mtx -trials 5
//	benchrunner -batch-suite 20                 # batched vs per-run throughput
//	                                            # comparison -> BENCH_batch.json
//	benchrunner -kernel-suite                   # degree-threshold x grain x
//	                                            # workers sweep -> BENCH_kernels.json
//	benchrunner -engine-suite                   # every engine x generator zoo
//	                                            # bake-off -> BENCH_engines.json
//	benchrunner -stream-suite                   # streaming-session throughput and
//	                                            # repair-cadence amortization
//	                                            # -> BENCH_stream.json
//
// The paper's absolute scales (2^24-2^26 vertices on a 128-processor
// Cray XMT) exceed commodity environments; pick -scales to fit your
// memory and time budget. EXPERIMENTS.md records the shape comparisons
// between these outputs and the paper's figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"chordal"
	"chordal/internal/experiments"
	"chordal/internal/tune"
)

func main() {
	cfg := experiments.DefaultConfig()
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|"))
		scales    = flag.String("scales", "", "comma-separated R-MAT scales (default 14,15,16)")
		graphS    = flag.String("graph", "", "pipeline source (path or generator spec): run an extraction worker sweep on it instead of a paper experiment")
		batchN    = flag.Int("batch-suite", 0, "run the batched-throughput comparison (chordal.Batch vs per-run Spec.Run) on an n-item bio-suite and write the JSON report")
		batchOut  = flag.String("batch-out", "BENCH_batch.json", "output path for the -batch-suite report")
		kernelRun = flag.Bool("kernel-suite", false, "sweep degree-threshold x grain x workers over the generator zoo, verify byte-identical outputs, and write the JSON report")
		kernelOut = flag.String("kernel-out", "BENCH_kernels.json", "output path for the -kernel-suite report")
		engineRun = flag.Bool("engine-suite", false, "run every registered engine over the generator zoo with verification and quality metrics (the bake-off matrix), and write the JSON report")
		engineOut = flag.String("engine-out", "BENCH_engines.json", "output path for the -engine-suite report")
		streamRun = flag.Bool("stream-suite", false, "measure streaming-session admission throughput and repair-cadence amortization over the generator zoo, and write the JSON report")
		streamOut = flag.String("stream-out", "BENCH_stream.json", "output path for the -stream-suite report")
		extRun    = flag.Bool("external-suite", false, "run the out-of-core external engine over the generator zoo from temp .bin files (shards x resident grid), gate byte-identity against the in-memory sharded engine, and write the JSON report")
		extOut    = flag.String("external-out", "BENCH_external.json", "output path for the -external-suite report")
	)
	flag.IntVar(&cfg.BioDownscale, "bio-downscale", cfg.BioDownscale, "bio network gene-count divisor (1 = paper size)")
	flag.IntVar(&cfg.MaxProcs, "maxprocs", cfg.MaxProcs, "max workers in scaling sweeps (0 = GOMAXPROCS)")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.IntVar(&cfg.SmallScale, "small-scale", cfg.SmallScale, "scale for structure figures 2-3 (paper: 10)")
	flag.IntVar(&cfg.Trials, "trials", cfg.Trials, "timing trials per measurement (fastest kept)")
	flag.Parse()

	if *graphS != "" {
		if err := sweep(*graphS, cfg.MaxProcs, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if *batchN > 0 {
		if err := batchBench(*batchN, *batchOut, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if *kernelRun {
		if err := kernelBench(*kernelOut, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if *engineRun {
		if err := engineBench(*engineOut, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if *streamRun {
		if err := streamBench(*streamOut, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}
	if *extRun {
		if err := externalBench(*extOut, cfg.Trials); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		return
	}

	if *scales != "" {
		cfg.Scales = cfg.Scales[:0]
		for _, s := range strings.Split(*scales, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 || v > 30 {
				fmt.Fprintf(os.Stderr, "benchrunner: bad scale %q\n", s)
				os.Exit(2)
			}
			cfg.Scales = append(cfg.Scales, v)
		}
	}
	if err := experiments.Run(os.Stdout, *exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// batchReport is the JSON record batchBench writes: the batched-vs-
// sequential throughput comparison on the bio-suite shape, one data
// point of the perf trajectory per commit.
type batchReport struct {
	// Items and Unique size the suite (Unique < Items in the dedup
	// shape); CPUs and Trials record the measurement conditions.
	Items  int `json:"items"`
	Unique int `json:"unique"`
	CPUs   int `json:"cpus"`
	// GOMAXPROCS and the tuner's calibrated kernel parameters pin down
	// the machine conditions of the data point.
	GOMAXPROCS           int `json:"gomaxprocs"`
	TunedGrain           int `json:"tunedGrain"`
	TunedDegreeThreshold int `json:"tunedDegreeThreshold"`
	// OverlapValid marks whether the batched-vs-sequential comparison
	// measures real overlap: false on a single-CPU machine, where the
	// shared pool cannot run items concurrently and any speedup is
	// scheduling noise rather than won overlap.
	OverlapValid bool `json:"overlapValid"`
	Trials       int  `json:"trials"`
	// SequentialMillis is N independent Spec.Run calls back-to-back;
	// BatchMillis the same suite through chordal.Batch; Speedup their
	// ratio (fastest trial each).
	SequentialMillis float64 `json:"sequentialMillis"`
	BatchMillis      float64 `json:"batchMillis"`
	Speedup          float64 `json:"speedup"`
	// The dedup variant re-submits each dataset repeatedly (the re-run
	// analysis shape); Batch collapses the repeats by canonical key.
	DedupItems            int     `json:"dedupItems"`
	DedupUnique           int     `json:"dedupUnique"`
	DedupSequentialMillis float64 `json:"dedupSequentialMillis"`
	DedupBatchMillis      float64 `json:"dedupBatchMillis"`
	DedupSpeedup          float64 `json:"dedupSpeedup"`
	// Timestamp dates the data point.
	Timestamp string `json:"timestamp"`
}

// batchSuite builds an n-item bio-suite: the four gene-correlation
// datasets cycled with advancing seeds (sameSeed collapses them to at
// most four unique canonical specs — the dedup shape).
func batchSuite(n int, sameSeed bool) []chordal.Spec {
	datasets := []string{"gse5140-crt", "gse5140-unt", "gse17072-ctl", "gse17072-non"}
	specs := make([]chordal.Spec, n)
	for i := range specs {
		seed := 7
		if !sameSeed {
			seed = 1 + i/len(datasets)
		}
		specs[i] = chordal.Spec{Source: fmt.Sprintf("%s:32:%d", datasets[i%len(datasets)], seed)}
	}
	return specs
}

// bestMillis runs fn trials times and returns the fastest wall time in
// milliseconds.
func bestMillis(trials int, fn func() error) (float64, error) {
	best := time.Duration(0)
	for t := 0; t < trials; t++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1000, nil
}

// batchBench measures the n-item suite through sequential Spec.Run
// calls and through chordal.Batch (plus the dedup shape), prints the
// comparison, and writes it as JSON to out.
func batchBench(n int, out string, trials int) error {
	if trials < 1 {
		trials = 1
	}
	prof := tune.Current()
	rep := batchReport{
		Items:                n,
		CPUs:                 runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		TunedGrain:           prof.Grain,
		TunedDegreeThreshold: prof.DegreeThreshold,
		OverlapValid:         runtime.NumCPU() > 1,
		Trials:               trials,
		Timestamp:            time.Now().UTC().Format(time.RFC3339),
	}
	measure := func(specs []chordal.Spec) (seqMs, batchMs float64, unique int, err error) {
		seqMs, err = bestMillis(trials, func() error {
			for _, s := range specs {
				if _, err := s.Run(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		batchMs, err = bestMillis(trials, func() error {
			res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{})
			if err != nil {
				return err
			}
			unique = res.Unique
			if f := res.Failed(); f != 0 {
				return fmt.Errorf("%d batch items failed", f)
			}
			return nil
		})
		return seqMs, batchMs, unique, err
	}

	var err error
	if rep.SequentialMillis, rep.BatchMillis, rep.Unique, err = measure(batchSuite(n, false)); err != nil {
		return err
	}
	rep.Speedup = rep.SequentialMillis / rep.BatchMillis
	rep.DedupItems = n
	if rep.DedupSequentialMillis, rep.DedupBatchMillis, rep.DedupUnique, err = measure(batchSuite(n, true)); err != nil {
		return err
	}
	rep.DedupSpeedup = rep.DedupSequentialMillis / rep.DedupBatchMillis

	fmt.Printf("batch suite: %d items (%d unique) on %d CPUs, best of %d trials\n",
		rep.Items, rep.Unique, rep.CPUs, rep.Trials)
	fmt.Printf("  sequential Spec.Run: %10.3f ms\n", rep.SequentialMillis)
	fmt.Printf("  chordal.Batch:       %10.3f ms   (%.2fx)\n", rep.BatchMillis, rep.Speedup)
	fmt.Printf("  dedup shape (%d unique): sequential %.3f ms, batch %.3f ms (%.2fx)\n",
		rep.DedupUnique, rep.DedupSequentialMillis, rep.DedupBatchMillis, rep.DedupSpeedup)
	if !rep.OverlapValid {
		fmt.Println("  note: single CPU — the overlap comparison is not meaningful (overlapValid=false)")
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// kernelPoint is one cell of the kernel sweep: a (source, workers,
// grain, degree-threshold) configuration with its fastest extraction
// time and the FNV-1a hash of its edge set (the byte-identity witness).
type kernelPoint struct {
	Source          string  `json:"source"`
	Workers         int     `json:"workers"`
	Grain           int     `json:"grain"`
	DegreeThreshold int     `json:"degreeThreshold"`
	Millis          float64 `json:"millis"`
	ChordalEdges    int     `json:"chordalEdges"`
	Iterations      int     `json:"iterations"`
	EdgeHash        string  `json:"edgeHash"`
}

// kernelSummary compares, per source at equal worker count, the best
// pure merge-scan configuration against the best hybrid one.
type kernelSummary struct {
	Source          string  `json:"source"`
	Workers         int     `json:"workers"`
	MergeScanMillis float64 `json:"mergeScanMillis"`
	HybridMillis    float64 `json:"hybridMillis"`
	// Speedup is mergeScan/hybrid: > 1 means the hybrid path won.
	Speedup float64 `json:"speedup"`
}

// kernelReport is the JSON record of one -kernel-suite run.
type kernelReport struct {
	CPUs                 int `json:"cpus"`
	GOMAXPROCS           int `json:"gomaxprocs"`
	TunedGrain           int `json:"tunedGrain"`
	TunedDegreeThreshold int `json:"tunedDegreeThreshold"`
	Trials               int `json:"trials"`
	// ByteIdentical reports that every configuration of every source
	// produced the same edge-set hash — the sweep's correctness gate.
	ByteIdentical bool            `json:"byteIdentical"`
	Points        []kernelPoint   `json:"points"`
	Summary       []kernelSummary `json:"summary"`
	Timestamp     string          `json:"timestamp"`
}

// edgeHash is the FNV-1a digest of an edge set in its canonical (U, V)
// order; equal hashes across configurations witness byte-identical
// extractions.
func edgeHash(edges []chordal.Edge) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range edges {
		buf[0] = byte(e.U)
		buf[1] = byte(e.U >> 8)
		buf[2] = byte(e.U >> 16)
		buf[3] = byte(e.U >> 24)
		buf[4] = byte(e.V)
		buf[5] = byte(e.V >> 8)
		buf[6] = byte(e.V >> 16)
		buf[7] = byte(e.V >> 24)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// kernelSources is the generator zoo of the kernel sweep: skewed R-MAT
// (hub-heavy, the paper's main inputs) at two densities, a bio-suite
// network (dense correlated clusters), a k-tree (uniformly large
// chordal sets), and a uniform G(n,m) control.
var kernelSources = []string{
	"rmat-g:12",
	"rmat-b:12:42:16",
	"gse5140-crt:8",
	"ktree:3000:48",
	"gnm:4096:65536",
}

// kernelBench sweeps degree-threshold x grain x workers over the
// generator zoo, verifies that every configuration extracts the same
// edge set, prints the merge-scan vs hybrid comparison, and writes the
// JSON report to out. Exits non-zero if any configuration's edge set
// diverges.
func kernelBench(out string, trials int) error {
	if trials < 1 {
		trials = 1
	}
	prof := tune.Current()
	rep := kernelReport{
		CPUs:                 runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		TunedGrain:           prof.Grain,
		TunedDegreeThreshold: prof.DegreeThreshold,
		Trials:               trials,
		ByteIdentical:        true,
		Timestamp:            time.Now().UTC().Format(time.RFC3339),
	}
	thresholds := dedupInts([]int{-1, 2, prof.DegreeThreshold, 128})
	grains := dedupInts([]int{16, prof.Grain, 256})
	workerAxis := []int{1, 2}

	fmt.Printf("kernel suite: %d CPUs, best of %d trials; tuned grain=%d threshold=%d\n",
		rep.CPUs, trials, prof.Grain, prof.DegreeThreshold)
	for _, source := range kernelSources {
		acq, err := chordal.Spec{Source: source, Engine: chordal.EngineNone}.Run()
		if err != nil {
			return err
		}
		g := acq.Input
		fmt.Printf("\n%s: %s\n", source, acq.InputStats)
		wantHash := ""
		// Per (source, workers): fastest merge-scan and hybrid cells.
		type best struct{ merge, hybrid float64 }
		bests := map[int]*best{}
		for _, workers := range workerAxis {
			bests[workers] = &best{}
			for _, grain := range grains {
				for _, thr := range thresholds {
					pt := kernelPoint{
						Source:          source,
						Workers:         workers,
						Grain:           grain,
						DegreeThreshold: thr,
					}
					for t := 0; t < trials; t++ {
						res, err := chordal.Extract(g, chordal.Options{
							Workers:         workers,
							Grain:           grain,
							DegreeThreshold: thr,
						})
						if err != nil {
							return err
						}
						ms := float64(res.Total.Microseconds()) / 1000
						if pt.Millis == 0 || ms < pt.Millis {
							pt.Millis = ms
							pt.ChordalEdges = res.NumChordalEdges()
							pt.Iterations = len(res.Iterations)
							pt.EdgeHash = edgeHash(res.Edges)
						}
					}
					if wantHash == "" {
						wantHash = pt.EdgeHash
					} else if pt.EdgeHash != wantHash {
						rep.ByteIdentical = false
						fmt.Printf("  DIVERGED: workers=%d grain=%d threshold=%d hash %s != %s\n",
							workers, grain, thr, pt.EdgeHash, wantHash)
					}
					b := bests[workers]
					if thr < 0 {
						if b.merge == 0 || pt.Millis < b.merge {
							b.merge = pt.Millis
						}
					} else if b.hybrid == 0 || pt.Millis < b.hybrid {
						b.hybrid = pt.Millis
					}
					rep.Points = append(rep.Points, pt)
				}
			}
		}
		for _, workers := range workerAxis {
			b := bests[workers]
			s := kernelSummary{
				Source:          source,
				Workers:         workers,
				MergeScanMillis: b.merge,
				HybridMillis:    b.hybrid,
			}
			if b.hybrid > 0 {
				s.Speedup = b.merge / b.hybrid
			}
			rep.Summary = append(rep.Summary, s)
			fmt.Printf("  workers=%d: merge-scan %8.3f ms, hybrid %8.3f ms (%.2fx)\n",
				workers, s.MergeScanMillis, s.HybridMillis, s.Speedup)
		}
	}

	if rep.ByteIdentical {
		fmt.Println("\nbyte-identity: all configurations extracted identical edge sets")
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if !rep.ByteIdentical {
		return fmt.Errorf("kernel sweep outputs diverged across configurations")
	}
	return nil
}

// engineRow is one cell of the bake-off matrix: a (engine, config,
// source) triple with its fastest run time, memory estimate,
// verification bit, and the shared quality metrics.
type engineRow struct {
	Engine string `json:"engine"`
	// Config is the engine-specific parameterization of the row, as a
	// canonical-style fragment ("partitions=4", "order=mindeg", ...);
	// empty for engines without one.
	Config string  `json:"config,omitempty"`
	Source string  `json:"source"`
	Millis float64 `json:"millis"`
	// PeakRSSEstimateBytes is runtime.MemStats.Sys after the run — the
	// Go runtime's total OS reservation, an upper-bound estimate of the
	// run's resident-set contribution. AllocDeltaBytes is the heap
	// allocation the run itself performed (TotalAlloc delta).
	PeakRSSEstimateBytes uint64 `json:"peakRSSEstimateBytes"`
	AllocDeltaBytes      uint64 `json:"allocDeltaBytes"`
	// Verified is the verify stage's chordality check — the matrix's
	// correctness gate; every row must be true.
	Verified bool `json:"verified"`
	// Maximal reports that the bounded maximality audit ran and found
	// no re-addable edges. Only the dearing engine guarantees it.
	Maximal      bool  `json:"maximal"`
	ChordalEdges int64 `json:"chordalEdges"`
	// Quality metrics from internal/quality (shared with
	// RunReport.Quality): retention, fill-in of the input under the
	// subgraph's PEO, and the exact chordal invariants.
	RetentionPct    float64 `json:"retentionPct"`
	FillComputed    bool    `json:"fillComputed"`
	FillIn          int64   `json:"fillIn"`
	Treewidth       int     `json:"treewidth,omitempty"`
	ChromaticNumber int     `json:"chromaticNumber,omitempty"`
}

// engineReport is the JSON record of one -engine-suite run: the
// quality-vs-speed bake-off of every registered engine over the zoo.
type engineReport struct {
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Trials     int      `json:"trials"`
	Engines    []string `json:"engines"`
	Sources    []string `json:"sources"`
	// AllVerified reports that every row passed the chordality check;
	// the suite exits non-zero otherwise.
	AllVerified bool        `json:"allVerified"`
	Rows        []engineRow `json:"rows"`
	Timestamp   string      `json:"timestamp"`
}

// engineSources is the bake-off zoo: the paper's three R-MAT presets, a
// uniform G(n,m) control, a small-world and a mesh-like geometric
// graph, a k-tree (known maximal chordal ground truth), and a
// bio-suite network. Sizes are chosen so the full matrix — including
// the exact quality metrics — runs in CI smoke time.
var engineSources = []string{
	"rmat-er:10",
	"rmat-g:10:7",
	"rmat-b:10:5",
	"gnm:2048:16384:3",
	"ws:1000:8:0.1:7",
	"geo:1200:0.05:11",
	"ktree:1500:24:9",
	"gse5140-crt:16:3",
}

// engineConfigs expands one registered engine name into the spec
// configurations the bake-off runs it under. Engines with mandatory
// parameters get a representative value; the elimination engine runs
// once per ordering so the matrix shows the order's quality effect.
func engineConfigs(name string) []struct {
	label string
	cfg   chordal.EngineConfig
} {
	type row = struct {
		label string
		cfg   chordal.EngineConfig
	}
	switch name {
	case chordal.EnginePartitioned:
		return []row{{"partitions=4", chordal.EngineConfig{Partitions: 4}}}
	case chordal.EngineSharded, chordal.EngineExternal:
		return []row{{"shards=3", chordal.EngineConfig{Shards: 3}}}
	case chordal.EngineDearing:
		return []row{{"start=0", chordal.EngineConfig{Start: 0}}}
	case chordal.EngineElimination:
		return []row{
			{"order=mindeg", chordal.EngineConfig{Order: chordal.OrderMinDegree}},
			{"order=natural", chordal.EngineConfig{Order: chordal.OrderNatural}},
		}
	default:
		return []row{{"", chordal.EngineConfig{}}}
	}
}

// engineBench runs the bake-off: every registered engine (each under
// its engineConfigs) x the engineSources zoo, with verification on and
// the shared quality metrics recorded per row. Writes the JSON report
// to out and exits non-zero if any row fails verification.
func engineBench(out string, trials int) error {
	if trials < 1 {
		trials = 1
	}
	rep := engineReport{
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Trials:      trials,
		Engines:     chordal.EngineNames(),
		Sources:     engineSources,
		AllVerified: true,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("engine suite: %d engines x %d sources on %d CPUs, best of %d trials\n",
		len(rep.Engines), len(engineSources), rep.CPUs, trials)
	for _, source := range engineSources {
		acq, err := chordal.Spec{Source: source, Engine: chordal.EngineNone}.Run()
		if err != nil {
			return err
		}
		g := acq.Input
		fmt.Printf("\n%s: %s\n", source, acq.InputStats)
		for _, engine := range rep.Engines {
			for _, ec := range engineConfigs(engine) {
				spec := chordal.Spec{
					Source:       source,
					Engine:       engine,
					EngineConfig: ec.cfg,
					Verify:       true,
				}
				row := engineRow{Engine: engine, Config: ec.label, Source: source}
				var res *chordal.PipelineResult
				for t := 0; t < trials; t++ {
					runtime.GC()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					t0 := time.Now()
					r, err := chordal.Runner{Input: g}.Run(context.Background(), spec)
					if err != nil {
						return fmt.Errorf("%s on %s: %w", engine, source, err)
					}
					ms := float64(time.Since(t0).Microseconds()) / 1000
					runtime.ReadMemStats(&after)
					if res == nil || ms < row.Millis {
						res = r
						row.Millis = ms
						row.PeakRSSEstimateBytes = after.Sys
						row.AllocDeltaBytes = after.TotalAlloc - before.TotalAlloc
					}
				}
				row.Verified = res.Verified && res.ChordalOK
				row.Maximal = res.MaximalityAudited && res.ReAddableEdges == 0
				row.ChordalEdges = res.Subgraph.NumEdges()
				if q := res.Quality; q != nil {
					row.RetentionPct = q.RetentionPct
					row.FillComputed = q.FillComputed
					row.FillIn = q.FillIn
					if q.CliquesComputed {
						row.Treewidth = q.Treewidth
						row.ChromaticNumber = q.ChromaticNumber
					}
				}
				if !row.Verified {
					rep.AllVerified = false
				}
				rep.Rows = append(rep.Rows, row)
				status := "chordal"
				if !row.Verified {
					status = "NOT CHORDAL"
				}
				maximal := ""
				if row.Maximal {
					maximal = " maximal"
				}
				fmt.Printf("  %-12s %-16s %9.3f ms  %7d edges (%5.1f%%)  fill %6d  tw %3d  %s%s\n",
					engine, ec.label, row.Millis, row.ChordalEdges, row.RetentionPct,
					row.FillIn, row.Treewidth, status, maximal)
			}
		}
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	if !rep.AllVerified {
		return fmt.Errorf("engine suite: some rows failed verification")
	}
	return nil
}

// streamRow is one cell of the stream suite: a (source, repair cadence)
// pair with its fastest session timings and the final session stats.
type streamRow struct {
	Source string `json:"source"`
	// RepairEvery is the session's automatic repair cadence; 0 repairs
	// only at Close (the spec has Repair on in every row).
	RepairEvery int   `json:"repairEvery"`
	Edges       int64 `json:"edges"`
	// PushMillis covers the admission loop (every delta through the
	// maintainer), CloseMillis the canonical extraction + verify at
	// EOF; AdmissionsPerSec is Edges over the push time.
	PushMillis       float64 `json:"pushMillis"`
	CloseMillis      float64 `json:"closeMillis"`
	AdmissionsPerSec float64 `json:"admissionsPerSec"`
	// The final stats of the fastest trial: how much of the input the
	// online pass admitted directly, how much arrived via repair
	// passes, and how many passes the cadence cost.
	Admitted int64 `json:"admitted"`
	Repaired int64 `json:"repaired"`
	Repairs  int64 `json:"repairs"`
	Deferred int64 `json:"deferred"`
	// Verified is the Close-time chordality check on the canonical
	// subgraph — the suite's correctness gate.
	Verified     bool  `json:"verified"`
	ChordalEdges int64 `json:"chordalEdges"`
}

// streamReport is the JSON record of one -stream-suite run.
type streamReport struct {
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Trials     int `json:"trials"`
	// OverlapValid marks whether timings reflect real parallel close
	// extractions: false on a single-CPU machine, where the Close-time
	// engine cannot overlap workers and cadence comparisons measure
	// only the admission loop honestly.
	OverlapValid bool        `json:"overlapValid"`
	AllVerified  bool        `json:"allVerified"`
	Cadences     []int       `json:"cadences"`
	Sources      []string    `json:"sources"`
	Rows         []streamRow `json:"rows"`
	Timestamp    string      `json:"timestamp"`
}

// streamSources is the stream-suite zoo: the engine bake-off sources,
// whose sizes keep the full cadence matrix in CI smoke time.
var streamSources = engineSources

// streamCadences is the repair-cadence axis: repair only at Close
// (maximum deferral, one big pass), every 64 deltas (amortized), and
// every 512 (coarse).
var streamCadences = []int{0, 64, 512}

// streamBench drives a full streaming session per (source, cadence)
// cell — open, push every edge, close for the canonical extraction —
// and records admission throughput plus how the repair cadence shifts
// work between the online pass and Close. Writes the JSON report to
// out and exits non-zero if any close fails verification.
func streamBench(out string, trials int) error {
	if trials < 1 {
		trials = 1
	}
	rep := streamReport{
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Trials:       trials,
		OverlapValid: runtime.NumCPU() > 1,
		AllVerified:  true,
		Cadences:     streamCadences,
		Sources:      streamSources,
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()
	fmt.Printf("stream suite: %d sources x %d cadences on %d CPUs, best of %d trials\n",
		len(streamSources), len(streamCadences), rep.CPUs, trials)
	for _, source := range streamSources {
		acq, err := chordal.Spec{Source: source, Engine: chordal.EngineNone}.Run()
		if err != nil {
			return err
		}
		g := acq.Input
		us, vs := g.EdgeList()
		fmt.Printf("\n%s: %s\n", source, acq.InputStats)
		for _, cadence := range streamCadences {
			row := streamRow{Source: source, RepairEvery: cadence, Edges: g.NumEdges()}
			for t := 0; t < trials; t++ {
				spec := chordal.Spec{
					Mode:         chordal.ModeStream,
					EngineConfig: chordal.EngineConfig{Repair: true},
					Verify:       true,
				}
				s, err := chordal.OpenStream(ctx, spec, chordal.StreamConfig{
					Vertices:    g.NumVertices(),
					RepairEvery: cadence,
				})
				if err != nil {
					return err
				}
				t0 := time.Now()
				for i := range us {
					if _, err := s.Push(ctx, us[i], vs[i]); err != nil {
						return err
					}
				}
				pushMs := float64(time.Since(t0).Microseconds()) / 1000
				t0 = time.Now()
				res, err := s.Close(ctx)
				if err != nil {
					return err
				}
				closeMs := float64(time.Since(t0).Microseconds()) / 1000
				if row.PushMillis == 0 || pushMs+closeMs < row.PushMillis+row.CloseMillis {
					st := res.Report.Stream
					row.PushMillis = pushMs
					row.CloseMillis = closeMs
					row.Admitted = st.Admitted
					row.Repaired = st.Repaired
					row.Repairs = st.Repairs
					row.Deferred = st.Deferred
					row.Verified = res.Report.Verify != nil && res.Report.Verify.Chordal
					row.ChordalEdges = res.Subgraph.NumEdges()
				}
			}
			if row.PushMillis > 0 {
				row.AdmissionsPerSec = float64(row.Edges) / (row.PushMillis / 1000)
			}
			if !row.Verified {
				rep.AllVerified = false
			}
			rep.Rows = append(rep.Rows, row)
			status := "chordal"
			if !row.Verified {
				status = "NOT CHORDAL"
			}
			fmt.Printf("  repairEvery=%-4d push %9.3f ms (%11.0f adm/s)  close %9.3f ms  admitted %7d  repaired %6d in %4d passes  %s\n",
				cadence, row.PushMillis, row.AdmissionsPerSec, row.CloseMillis,
				row.Admitted, row.Repaired, row.Repairs, status)
		}
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	if !rep.AllVerified {
		return fmt.Errorf("stream suite: some sessions failed verification")
	}
	return nil
}

// externalRow is one cell of the external suite: a (source, shards,
// resident) configuration of the out-of-core engine run from a .bin
// file, with its fastest times, the fastest trial's IO accounting, and
// the byte-identity gate against the in-memory sharded engine at the
// same shard count.
type externalRow struct {
	Source   string `json:"source"`
	Shards   int    `json:"shards"`
	Resident int    `json:"resident"`
	// ShardedMillis is the in-memory sharded engine's fastest
	// extract-stage time at the same shard count; ExternalMillis the
	// out-of-core extract stage on the temp .bin (open + decode +
	// extract + merge included). Stage timings, not wall clock, so the
	// verify and quality passes outside the engines do not distort the
	// comparison.
	ShardedMillis  float64 `json:"shardedMillis"`
	ExternalMillis float64 `json:"externalMillis"`
	// The IO accounting of the fastest external trial: whether the file
	// was memory-mapped (false = buffered fallback), the byte volumes,
	// the decoded-shard residency watermark, and the decode/kernel
	// overlap the double buffer won.
	Mapped            bool    `json:"mapped"`
	BytesMapped       int64   `json:"bytesMapped"`
	BytesRead         int64   `json:"bytesRead"`
	SpillBytes        int64   `json:"spillBytes"`
	PeakResidentBytes int64   `json:"peakResidentBytes"`
	OverlapMillis     float64 `json:"overlapMillis"`
	// ByteIdentical is the suite's gate: the external subgraph's edge
	// hash must equal the sharded engine's at equal shards. Verified is
	// the external run's own chordality check.
	ByteIdentical bool   `json:"byteIdentical"`
	Verified      bool   `json:"verified"`
	ChordalEdges  int64  `json:"chordalEdges"`
	EdgeHash      string `json:"edgeHash"`
}

// externalReport is the JSON record of one -external-suite run.
type externalReport struct {
	CPUs       int   `json:"cpus"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	Trials     int   `json:"trials"`
	Shards     []int `json:"shards"`
	Residents  []int `json:"residents"`
	// Sources is the zoo (the engine bake-off's); AllIdentical reports
	// that every cell matched its sharded baseline and verified — the
	// suite exits non-zero otherwise.
	Sources      []string      `json:"sources"`
	AllIdentical bool          `json:"allIdentical"`
	Rows         []externalRow `json:"rows"`
	Timestamp    string        `json:"timestamp"`
}

// extractMillis is the run's extract-stage duration in milliseconds —
// the engine's own cost, excluding acquire, verify, and quality.
func extractMillis(res *chordal.PipelineResult) float64 {
	for _, st := range res.Timings {
		if st.Stage == "extract" {
			return float64(st.Duration.Microseconds()) / 1000
		}
	}
	return 0
}

// graphHash is edgeHash over a graph's full edge list — the
// byte-identity witness for merged subgraphs.
func graphHash(g *chordal.Graph) string {
	us, vs := g.EdgeList()
	edges := make([]chordal.Edge, len(us))
	for i := range us {
		edges[i] = chordal.Edge{U: us[i], V: vs[i]}
	}
	return edgeHash(edges)
}

// externalBench runs the out-of-core suite: every zoo source is saved
// to a temp .bin and extracted by the external engine straight from the
// file (the no-acquire source path) across a shards x resident grid,
// against the in-memory sharded engine at equal shard counts as both
// the byte-identity gate and the timing baseline. Writes the JSON
// report to out and exits non-zero if any cell diverges or fails
// verification.
func externalBench(out string, trials int) error {
	if trials < 1 {
		trials = 1
	}
	rep := externalReport{
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Trials:       trials,
		Shards:       []int{2, 4, 8},
		Residents:    []int{2, 3},
		Sources:      engineSources,
		AllIdentical: true,
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
	}
	dir, err := os.MkdirTemp("", "chordal-bench-ext-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	fmt.Printf("external suite: %d sources x shards %v x resident %v on %d CPUs, best of %d trials\n",
		len(rep.Sources), rep.Shards, rep.Residents, rep.CPUs, trials)
	for si, source := range rep.Sources {
		acq, err := chordal.Spec{Source: source, Engine: chordal.EngineNone}.Run()
		if err != nil {
			return err
		}
		g := acq.Input
		bin := filepath.Join(dir, fmt.Sprintf("src%d.bin", si))
		if err := chordal.SaveGraph(bin, g); err != nil {
			return err
		}
		fmt.Printf("\n%s: %s (%d-byte .bin)\n", source, acq.InputStats, g.SizeBytes())
		for _, shards := range rep.Shards {
			// In-memory sharded baseline: the identity oracle and the
			// cost of having the whole CSR resident.
			baseSpec := chordal.Spec{
				Engine:       chordal.EngineSharded,
				EngineConfig: chordal.EngineConfig{Shards: shards},
			}
			var baseHash string
			var baseMs float64
			for t := 0; t < trials; t++ {
				r, err := chordal.Runner{Input: g}.Run(ctx, baseSpec)
				if err != nil {
					return fmt.Errorf("sharded on %s: %w", source, err)
				}
				if ms := extractMillis(r); baseMs == 0 || ms < baseMs {
					baseMs = ms
					baseHash = graphHash(r.Subgraph)
				}
			}
			for _, resident := range rep.Residents {
				row := externalRow{Source: source, Shards: shards, Resident: resident, ShardedMillis: baseMs}
				spec := chordal.Spec{
					Source:       bin,
					Engine:       chordal.EngineExternal,
					EngineConfig: chordal.EngineConfig{Shards: shards, ResidentShards: resident},
					Verify:       true,
				}
				var res *chordal.PipelineResult
				for t := 0; t < trials; t++ {
					r, err := spec.Run()
					if err != nil {
						return fmt.Errorf("external on %s: %w", source, err)
					}
					if ms := extractMillis(r); res == nil || ms < row.ExternalMillis {
						res = r
						row.ExternalMillis = ms
					}
				}
				if ex := res.External; ex != nil {
					row.Mapped = ex.Mapped
					row.BytesMapped = ex.BytesMapped
					row.BytesRead = ex.BytesRead
					row.SpillBytes = ex.SpillBytes
					row.PeakResidentBytes = ex.PeakResidentBytes
					row.OverlapMillis = ex.OverlapMillis
				}
				row.Verified = res.Verified && res.ChordalOK
				row.ChordalEdges = res.Subgraph.NumEdges()
				row.EdgeHash = graphHash(res.Subgraph)
				row.ByteIdentical = row.EdgeHash == baseHash
				if !row.ByteIdentical || !row.Verified {
					rep.AllIdentical = false
				}
				rep.Rows = append(rep.Rows, row)
				status := "identical"
				if !row.ByteIdentical {
					status = "DIVERGED"
				} else if !row.Verified {
					status = "NOT CHORDAL"
				}
				fmt.Printf("  shards=%d resident=%d: sharded %9.3f ms, external %9.3f ms  peak ~%8d B  overlap %7.3f ms  %s\n",
					shards, resident, row.ShardedMillis, row.ExternalMillis,
					row.PeakResidentBytes, row.OverlapMillis, status)
			}
		}
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	if !rep.AllIdentical {
		return fmt.Errorf("external suite: some cells diverged from the sharded baseline or failed verification")
	}
	return nil
}

// dedupInts drops duplicates preserving first occurrence.
func dedupInts(in []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// sweep measures pipeline acquisition once and extraction across a
// doubling worker axis on the given source, the Figure 4/5-style curve
// for arbitrary inputs.
func sweep(source string, maxProcs, trials int) error {
	if maxProcs <= 0 {
		maxProcs = runtime.GOMAXPROCS(0)
	}
	if trials < 1 {
		trials = 1
	}
	acq, err := chordal.Spec{Source: source, Engine: chordal.EngineNone}.Run()
	if err != nil {
		return err
	}
	fmt.Printf("source %s: %s\n", source, acq.InputStats)
	for _, st := range acq.Timings {
		fmt.Printf("stage %-8s %12s\n", st.Stage, st.Duration)
	}
	axis := []int{}
	for w := 1; w <= maxProcs; w *= 2 {
		axis = append(axis, w)
	}
	if last := axis[len(axis)-1]; last != maxProcs {
		axis = append(axis, maxProcs) // full-machine endpoint
	}
	fmt.Printf("\n%8s %14s %14s %10s\n", "workers", "extract", "chordal-edges", "iters")
	for _, workers := range axis {
		best := time.Duration(0)
		var edges, iters int
		for t := 0; t < trials; t++ {
			res, err := chordal.Extract(acq.Input, chordal.Options{Workers: workers})
			if err != nil {
				return err
			}
			// Keep every column from the same (fastest) run.
			if best == 0 || res.Total < best {
				best = res.Total
				edges, iters = res.NumChordalEdges(), len(res.Iterations)
			}
		}
		fmt.Printf("%8d %14s %14d %10d\n", workers, best, edges, iters)
	}
	return nil
}
