// Command benchrunner regenerates the paper's evaluation artifacts:
// Table I, Figures 2-7, Table II and the §V chordal-edge percentages.
// It can also sweep extraction workers on any input source, and run
// the engine bake-off that BENCH_engines.json records.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp fig4 -scales 14,15,16 -maxprocs 8
//	benchrunner -exp table2 -bio-downscale 4 -trials 5
//	benchrunner -graph rmat-g:18 -maxprocs 8    # worker sweep on one input
//	benchrunner -graph web.mtx -trials 5
//	benchrunner -engine-suite                   # every engine x generator zoo
//	                                            # bake-off -> BENCH_engines.json
//
// The paper's absolute scales (2^24-2^26 vertices on a 128-processor
// Cray XMT) exceed commodity environments; pick -scales to fit your
// memory and time budget. The printed series are the measured side of
// each comparison with the paper's figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"chordal"
	"chordal/internal/experiments"
)

func main() {
	cfg := experiments.DefaultConfig()
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), "|"))
		scales    = flag.String("scales", "", "comma-separated R-MAT scales (default 14,15,16)")
		graphS    = flag.String("graph", "", "pipeline source (path or generator spec): run an extraction worker sweep on it instead of a paper experiment")
		engineRun = flag.Bool("engine-suite", false, "run every registered engine over the generator zoo with verification and quality metrics (the bake-off matrix), and write the JSON report")
		engineOut = flag.String("engine-out", "BENCH_engines.json", "output path for the -engine-suite report")
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
	if *engineRun {
		if err := engineBench(*engineOut, cfg.Trials); err != nil {
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
