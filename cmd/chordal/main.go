// Command chordal extracts a maximal chordal subgraph from a graph file
// or generator spec using the paper's multithreaded algorithm,
// optionally verifying the result and writing the subgraph out. It is a
// thin flag layer over the chordal.Spec API: flags compile to one
// declarative Spec, which runs through the same engine registry and
// runner as the library and the HTTP service.
//
// Usage:
//
//	chordal -in graph.bin -out sub.bin -verify
//	chordal -in rmat-g:16:7 -variant unopt -schedule async -workers 8
//	chordal -in rmat-g:18:7 -shards 8 -verify   # sharded engine
//	chordal -in big.bin -engine external -shards 8 -verify  # out-of-core from the .bin, never loaded whole
//	chordal -in graph.txt -engine dearing       # Dearing et al. baseline ("serial" is an alias)
//	chordal -in rmat-er:12 -json                # machine-readable report
//	chordal -batch suite.txt -verify -json      # every source in a manifest
//	chordal -batch 'graphs/*.bin' -verify       # every file matching a glob
//	chordal -stream -repair -json < deltas.txt  # streaming session on stdin
//
// Exactly one engine may be selected: combining -partition, -shards,
// or a conflicting -engine name exits non-zero with a clear error
// instead of silently picking one.
//
// Stream mode (-stream) reads edge deltas from stdin — one per line,
// either "u v" or {"u":..,"v":..} (blank lines and # comments skipped) —
// and prints one NDJSON admission event per decision on stdout
// (admit/defer, plus repair-pass summaries). At EOF the session closes:
// the canonical batch engine runs over every distinct delta, so the
// final subgraph is independent of arrival order and identical to a
// batch run on the same edges. -json appends the chordal.StreamReport;
// -out writes the canonical subgraph; the human summary goes to stderr
// so stdout stays pure NDJSON.
//
// Batch mode runs every input listed in a manifest file (one source per
// line, # comments) or matching a glob pattern through one shared
// worker pool (see chordal.Batch): items with identical canonical specs
// run once, -workers bounds the batch's total parallelism instead of a
// single run's, and -json emits the aggregate chordal.BatchReport.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"chordal"
)

func main() {
	var (
		in          = flag.String("in", "", "input graph path or generator spec (required)")
		out         = flag.String("out", "", "optional output path for the chordal subgraph")
		engineSel   = flag.String("engine", "", "extraction engine: "+strings.Join(chordal.EngineNames(), "|")+" (default parallel; -partition/-shards imply one; serial is an alias of dearing)")
		variant     = flag.String("variant", "auto", "auto|opt|unopt")
		schedule    = flag.String("schedule", "dataflow", "dataflow|async|sync")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = pick by machine model, capped at all CPUs)")
		grain       = flag.Int("grain", 0, "extraction loop chunk size (0 = startup calibration)")
		degreeThr   = flag.Int("degree-threshold", 0, "chordal-set size switching the subset test to the bitset probe (0 = startup calibration, negative = merge scan only)")
		parts       = flag.Int("partition", 0, "use the distributed-style partitioned engine with this many partitions (plus cycle cleanup)")
		shards      = flag.Int("shards", 0, "use the sharded engine with this many vertex-range shards (border edges reconciled chordality-preserving)")
		stitchOnly  = flag.Bool("shard-stitch-only", false, "with -shards: reconcile border edges by spanning stitch only")
		resident    = flag.Int("resident-shards", 0, "with -engine external: max shards resident in memory at once (0 = 2, the double-buffer minimum)")
		maxDeferred = flag.Int("max-deferred", 0, "with -stream: bound on the deferred-edge queue; excess deltas drop with an overflow event (0 = unbounded)")
		startV      = flag.Int("start", 0, "with -engine dearing: start vertex the incremental extraction grows from")
		order       = flag.String("order", "", "with -engine elimination: elimination ordering, natural|mindeg (default mindeg)")
		repair      = flag.Bool("repair", false, "run the maximality repair post-pass")
		stitch      = flag.Bool("stitch", false, "stitch disconnected chordal components")
		bfs         = flag.Bool("bfs-relabel", false, "renumber vertices in BFS order before extraction")
		doVerify    = flag.Bool("verify", false, "verify chordality (and audit maximality on small graphs)")
		iters       = flag.Bool("iters", false, "print per-iteration queue statistics")
		timings     = flag.Bool("timings", false, "print per-stage pipeline timings")
		jsonOut     = flag.Bool("json", false, "emit the full run report as one JSON object on stdout (for benchrunner and CI)")
		batch       = flag.String("batch", "", "run every source in a manifest file (one per line, # comments) or matching a glob, over one shared worker pool")
		batchPar    = flag.Int("batch-par", 0, "with -batch: max items running simultaneously (0 = one per worker token)")
		stream      = flag.Bool("stream", false, "streaming session: read edge deltas from stdin, print NDJSON admission events, extract canonically at EOF")
		streamVerts = flag.Int("stream-vertices", 0, "with -stream: initial vertex universe (grows on demand)")
		repairEvery = flag.Int("repair-every", 0, "with -stream: run a repair pass every N deltas (0 = only at EOF with -repair)")
	)
	flag.Parse()

	// One template for both modes: -batch stamps each manifest source
	// into a copy, the single-run path adds -in/-out. Keeping a single
	// literal means a future EngineConfig flag cannot reach one mode
	// and silently miss the other.
	spec := chordal.Spec{
		Engine: *engineSel,
		EngineConfig: chordal.EngineConfig{
			Variant:         *variant,
			Schedule:        *schedule,
			Workers:         *workers,
			Grain:           *grain,
			DegreeThreshold: *degreeThr,
			Repair:          *repair,
			Stitch:          *stitch,
			Partitions:      *parts,
			Shards:          *shards,
			ShardStitchOnly: *stitchOnly,
			ResidentShards:  *resident,
			MaxDeferred:     *maxDeferred,
			Start:           *startV,
			Order:           *order,
		},
		Verify:  *doVerify,
		Relabel: relabelFlag(*bfs),
	}

	if *stream {
		if *in != "" || *batch != "" {
			fail(fmt.Errorf("-stream reads deltas from stdin; it conflicts with -in and -batch"))
		}
		if *iters || *timings {
			fail(fmt.Errorf("-iters and -timings are not supported with -stream"))
		}
		runStream(spec, *out, *jsonOut, *streamVerts, *repairEvery)
		return
	}
	if *batch != "" {
		if *in != "" || *out != "" {
			fail(fmt.Errorf("-batch replaces -in and does not support -out (outputs would collide)"))
		}
		if *iters || *timings {
			fail(fmt.Errorf("-iters and -timings are not supported with -batch; use -json for per-item reports"))
		}
		runBatch(*batch, *batchPar, *jsonOut, spec, *workers)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "chordal: -in is required (a path or one of:\n"+chordal.SourceSpecs+")")
		flag.Usage()
		os.Exit(2)
	}
	spec.Source = *in
	spec.Output = *out
	// Normalize up front: engine conflicts (say -engine dearing -shards
	// 4) and unknown enum names exit here, before any graph is loaded.
	spec, err := spec.Normalize()
	if err != nil {
		fail(err)
	}

	res, err := spec.Run()
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		rep, err := chordal.Report(spec, res)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		// Same exit-code contract as the text mode: a failed verify or
		// a failed shard reconciliation self-check is non-zero.
		if (res.Verified && !res.ChordalOK) || (res.Shard != nil && !res.Shard.Chordal) {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("input: %s\n", res.InputStats)
	if *bfs {
		fmt.Println("relabeled vertices in BFS order")
	}

	switch spec.Engine {
	case chordal.EngineNone:
		// Acquire/relabel/write only; nothing was extracted.
	case chordal.EngineDearing:
		fmt.Printf("dearing (start vertex %d): %d chordal edges in %s\n",
			res.Dearing.Start, res.Subgraph.NumEdges(), res.SerialDuration)
	case chordal.EngineElimination:
		fmt.Printf("elimination (%s order): %d chordal edges (not necessarily maximal)\n",
			res.Elimination.Order, res.Subgraph.NumEdges())
	case chordal.EnginePartitioned:
		ps := res.Partition
		fmt.Printf("partitioned (%d parts): %d interior + %d border edges kept; cleanup removed %d in %d rounds\n",
			ps.Parts, ps.InteriorEdges, ps.BorderAdmitted, ps.CleanupRemoved, ps.CleanupRounds)
	case chordal.EngineSharded:
		sh := res.Shard
		fmt.Printf("sharded (%d shards): %d interior + %d stitched (%d border bridges) + %d border-admitted + %d repaired = %d edges\n",
			sh.Shards, sh.InteriorEdges, sh.StitchedEdges, sh.BorderBridges, sh.BorderAdmitted,
			sh.RepairedEdges, res.Subgraph.NumEdges())
		if *iters {
			fmt.Printf("%6s %12s %12s\n", "shard", "iters", "edges")
			for i, it := range sh.PerShardIterations {
				fmt.Printf("%6d %12d %12d\n", i, it, sh.PerShardEdges[i])
			}
		}
		if !sh.Chordal {
			fail(fmt.Errorf("shard reconciliation self-check FAILED: merged subgraph not chordal"))
		}
	case chordal.EngineExternal:
		sh, ex := res.Shard, res.External
		fmt.Printf("external (%d shards, %d resident): %d interior + %d stitched (%d border bridges) + %d border-admitted = %d edges, edge cut %d (%.1f%%)\n",
			sh.Shards, ex.ResidentShards, sh.InteriorEdges, sh.StitchedEdges, sh.BorderBridges,
			sh.BorderAdmitted, res.Subgraph.NumEdges(), sh.EdgeCut, sh.EdgeCutPct)
		mode := "buffered reads"
		if ex.Mapped {
			mode = "mmap"
		}
		fmt.Printf("io (%s): %d bytes mapped, %d read, %d spilled; peak resident ~%d bytes; decode %.1fms, kernels %.1fms, overlap %.1fms\n",
			mode, ex.BytesMapped, ex.BytesRead, ex.SpillBytes, ex.PeakResidentBytes,
			ex.DecodeMillis, ex.KernelMillis, ex.OverlapMillis)
		if *iters {
			fmt.Printf("%6s %12s %12s\n", "shard", "iters", "edges")
			for i, it := range sh.PerShardIterations {
				fmt.Printf("%6d %12d %12d\n", i, it, sh.PerShardEdges[i])
			}
		}
		if !sh.Chordal {
			fail(fmt.Errorf("shard reconciliation self-check FAILED: merged subgraph not chordal"))
		}
	default:
		r := res.Extraction
		fmt.Printf("parallel (%s/%s): %d chordal edges (%.1f%% of input) in %s, %d iterations\n",
			r.Variant, r.Schedule, r.NumChordalEdges(),
			100*float64(r.NumChordalEdges())/float64(res.Input.NumEdges()),
			r.Total, len(r.Iterations))
		if r.RepairedEdges > 0 {
			fmt.Printf("repair pass re-admitted %d edges\n", r.RepairedEdges)
		}
		if r.StitchedEdges > 0 {
			fmt.Printf("stitch pass connected %d component pairs\n", r.StitchedEdges)
		}
		if *iters {
			fmt.Printf("%6s %12s %12s %12s %12s\n", "iter", "|Q1|", "tested", "accepted", "time")
			for _, it := range r.Iterations {
				fmt.Printf("%6d %12d %12d %12d %12s\n",
					it.Index, it.QueueSize, it.EdgesTested, it.EdgesAccepted, it.Duration)
			}
		}
	}

	if res.Verified {
		if !res.ChordalOK {
			fail(fmt.Errorf("verification FAILED: output is not chordal"))
		}
		fmt.Println("verified: output is chordal")
		switch {
		case !res.MaximalityAudited:
			fmt.Println("maximality audit skipped (graph too large; use -repair to enforce)")
		case res.ReAddableEdges == 0:
			fmt.Println("verified: output is maximal (no re-addable edges)")
		default:
			fmt.Printf("maximality audit: %d+ re-addable edges (see DESIGN.md §5; rerun with -repair)\n",
				res.ReAddableEdges)
		}
	}

	if q := res.Quality; q != nil {
		fmt.Printf("quality: retained %d/%d edges (%.1f%%), fill-in under subgraph PEO %d",
			q.EdgesRetained, q.EdgesInput, q.RetentionPct, q.FillIn)
		if q.CliquesComputed {
			fmt.Printf(", treewidth %d, chromatic number %d", q.Treewidth, q.ChromaticNumber)
		}
		fmt.Println()
	}

	if *out != "" {
		written := res.Subgraph
		if written == nil {
			written = res.Input
		}
		fmt.Printf("wrote %s: %s\n", *out, chordal.ComputeStats(written))
	}
	if *timings {
		for _, st := range res.Timings {
			fmt.Printf("stage %-8s %12s\n", st.Stage, st.Duration)
		}
	}
}

// relabelFlag maps -bfs-relabel onto the spec's relabel mode.
func relabelFlag(bfs bool) string {
	if bfs {
		return "bfs"
	}
	return ""
}

// batchSources resolves the -batch argument: an existing file is read
// as a manifest listing one source per line (blank lines and
// #-comments skipped); otherwise a pattern containing glob
// metacharacters expands to the matching files. The stat-first order
// keeps a manifest whose own name contains glob characters
// ("suite[v2].txt") readable.
func batchSources(arg string) ([]string, error) {
	if fi, err := os.Stat(arg); (err != nil || fi.IsDir()) && strings.ContainsAny(arg, "*?[") {
		matches, err := filepath.Glob(arg)
		if err != nil {
			return nil, fmt.Errorf("bad -batch glob %q: %w", arg, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-batch glob %q matched no files", arg)
		}
		return matches, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sources []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sources = append(sources, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("-batch manifest %q lists no sources", arg)
	}
	return sources, nil
}

// runBatch executes the batch mode: every source from the manifest or
// glob runs the template spec over one shared pool, then the aggregate
// report prints (text, or the full chordal.BatchReport with -json).
// Any failed item, failed verify, or failed shard self-check exits
// non-zero.
func runBatch(arg string, concurrency int, jsonOut bool, template chordal.Spec, workers int) {
	// Validate the flag template once before touching the manifest, so
	// an engine conflict (say -engine dearing -shards 4) fails with one
	// error up front exactly as in single-run mode, instead of repeating
	// per item. Per-item validation still covers source-specific
	// problems.
	probe := template
	probe.Source = "gnm:1:1"
	if err := probe.Validate(); err != nil {
		fail(err)
	}
	sources, err := batchSources(arg)
	if err != nil {
		fail(err)
	}
	specs := make([]chordal.Spec, len(sources))
	for i, src := range sources {
		specs[i] = template
		specs[i].Source = src
	}
	res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{
		Workers:     workers,
		Concurrency: concurrency,
	})
	if err != nil {
		fail(err)
	}

	rep := res.Report()
	bad := rep.Failed + rep.VerifyFailed

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	} else {
		for i := range res.Items {
			it := &res.Items[i]
			switch {
			case it.Err != nil:
				fmt.Printf("[%d] %-32s ERROR: %v\n", i, sources[i], it.Err)
			case it.DupOf >= 0:
				fmt.Printf("[%d] %-32s = item %d (same canonical spec)\n", i, sources[i], it.DupOf)
			case it.Result.Subgraph == nil: // engine "none": nothing extracted
				fmt.Printf("[%d] %-32s V=%d E=%d (no extraction)\n",
					i, sources[i], it.Result.InputStats.Vertices, it.Result.InputStats.Edges)
			default:
				r := it.Result
				status := ""
				if r.Verified {
					status = "  chordal"
					if !r.ChordalOK {
						status = "  NOT CHORDAL"
					}
				}
				fmt.Printf("[%d] %-32s V=%d E=%d -> %d chordal edges%s\n",
					i, sources[i], r.InputStats.Vertices, r.InputStats.Edges,
					r.Subgraph.NumEdges(), status)
			}
		}
		fmt.Printf("batch: %d items (%d unique, %d deduplicated, %d failed, %d failed verify) in %s\n",
			rep.Total, rep.Unique, rep.Deduplicated, rep.Failed, rep.VerifyFailed, res.Wall)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// runStream executes the streaming mode: the flag template becomes a
// stream-mode spec, stdin deltas drive the session, each decision is
// printed as one NDJSON event, and EOF closes the session with the
// canonical extraction. The subgraph is written by the CLI itself
// (stream specs reject Output — results come from Close), and the
// verify outcome keeps the usual exit-code contract.
func runStream(template chordal.Spec, out string, jsonOut bool, vertices, repairEvery int) {
	spec := template
	spec.Mode = chordal.ModeStream
	ctx := context.Background()
	enc := json.NewEncoder(os.Stdout)
	s, err := chordal.OpenStream(ctx, spec, chordal.StreamConfig{
		Vertices:    vertices,
		RepairEvery: repairEvery,
		Observer: func(ev chordal.Event) {
			switch ev.Type {
			case chordal.EventAdmit, chordal.EventDefer, chordal.EventRepair:
				enc.Encode(ev)
			}
		},
	})
	if err != nil {
		fail(err)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		d, err := chordal.ParseEdgeDelta(text)
		if err != nil {
			fail(fmt.Errorf("stdin line %d: %w", line, err))
		}
		if _, err := s.Push(ctx, d.U, d.V); err != nil {
			fail(err)
		}
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	res, err := s.Close(ctx)
	if err != nil {
		fail(err)
	}
	rep := res.Report
	if jsonOut {
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	} else {
		st := rep.Stream
		fmt.Fprintf(os.Stderr, "stream: %d deltas (%d admitted, %d repaired, %d deferred, %d duplicate, %d invalid), %d repair passes\n",
			st.Pushed, st.Admitted, st.Repaired, st.Deferred, st.Duplicates, st.Invalid, st.Repairs)
		fmt.Fprintf(os.Stderr, "canonical result: %d vertices, %d input edges -> %d chordal edges\n",
			rep.Input.Vertices, rep.Input.Edges, res.Subgraph.NumEdges())
		if v := rep.Verify; v != nil {
			if v.Chordal {
				fmt.Fprintln(os.Stderr, "verified: output is chordal")
			} else {
				fmt.Fprintln(os.Stderr, "verification FAILED: output is not chordal")
			}
		}
	}
	if out != "" {
		if err := chordal.SaveGraph(out, res.Subgraph); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %s\n", out, chordal.ComputeStats(res.Subgraph))
	}
	if v := rep.Verify; v != nil && !v.Chordal {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "chordal:", err)
	os.Exit(1)
}
