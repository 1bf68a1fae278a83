// Benchmarks regenerating the paper's evaluation, one per table/figure
// plus the ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping to the paper (see cmd/benchrunner -exp for the full sweeps
// with printed series):
//
//	BenchmarkGenerate*        Table I inputs
//	BenchmarkExtract*         Figures 4 & 6 measured kernel (Opt/Unopt x ER/G/B)
//	BenchmarkExtractBio*      Figure 5 measured kernel
//	BenchmarkSchedule*        DESIGN.md §5 schedule ablation
//	BenchmarkQueueOrder*      sorted vs arbitrary queue ablation
//	BenchmarkSerialDearing    serial baseline (Section II)
//	BenchmarkPartitioned      distributed-style baseline (Section II)
//	BenchmarkVerifyChordal    MCS verification cost
//	BenchmarkSubsetRate       Figure 7's per-iteration kernel (subset tests)
package chordal_test

import (
	"context"
	"fmt"
	"testing"

	"chordal"
	"chordal/internal/biogen"
	"chordal/internal/core"
	"chordal/internal/dearing"
	"chordal/internal/elimination"
	"chordal/internal/graph"
	"chordal/internal/partition"
	"chordal/internal/rmat"
	"chordal/internal/shard"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

// benchScale keeps single-iteration benchmark time near tens of
// milliseconds; raise for real experiments via cmd/benchrunner.
const benchScale = 14

var benchGraphs = map[string]*graph.Graph{}

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	var g *graph.Graph
	var err error
	switch name {
	case "ER":
		g, err = rmat.Generate(rmat.PresetParams(rmat.ER, benchScale, 7))
	case "G":
		g, err = rmat.Generate(rmat.PresetParams(rmat.G, benchScale, 7))
	case "B":
		g, err = rmat.Generate(rmat.PresetParams(rmat.B, benchScale, 7))
	case "GSE5140UNT":
		g, err = biogen.Generate(biogen.PresetParams(biogen.GSE5140UNT, 8, 7))
	case "GSE17072NON":
		g, err = biogen.Generate(biogen.PresetParams(biogen.GSE17072NON, 8, 7))
	default:
		b.Fatalf("unknown bench graph %s", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = g
	return g
}

// --- Table I: generation ---

func BenchmarkGenerateRMATER(b *testing.B) { benchGenerate(b, rmat.ER) }
func BenchmarkGenerateRMATG(b *testing.B)  { benchGenerate(b, rmat.G) }
func BenchmarkGenerateRMATB(b *testing.B)  { benchGenerate(b, rmat.B) }

func benchGenerate(b *testing.B, p rmat.Preset) {
	params := rmat.PresetParams(p, benchScale, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rmat.Generate(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateBio(b *testing.B) {
	params := biogen.PresetParams(biogen.GSE5140UNT, 8, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := biogen.Generate(params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 4 & 6: extraction kernels, Opt vs Unopt per family ---

func benchExtract(b *testing.B, name string, v core.Variant) {
	g := benchGraph(b, name)
	if v == core.VariantOptimized {
		g = g.SortAdjacency()
	}
	b.SetBytes(int64(g.NumEdges()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Extract(g, core.Options{Variant: v})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumChordalEdges() == 0 {
			b.Fatal("empty extraction")
		}
	}
}

func BenchmarkExtractEROpt(b *testing.B)   { benchExtract(b, "ER", core.VariantOptimized) }
func BenchmarkExtractERUnopt(b *testing.B) { benchExtract(b, "ER", core.VariantUnoptimized) }
func BenchmarkExtractGOpt(b *testing.B)    { benchExtract(b, "G", core.VariantOptimized) }
func BenchmarkExtractGUnopt(b *testing.B)  { benchExtract(b, "G", core.VariantUnoptimized) }
func BenchmarkExtractBOpt(b *testing.B)    { benchExtract(b, "B", core.VariantOptimized) }
func BenchmarkExtractBUnopt(b *testing.B)  { benchExtract(b, "B", core.VariantUnoptimized) }

// --- Figure 5: biological networks ---

func BenchmarkExtractBioUNTOpt(b *testing.B) { benchExtract(b, "GSE5140UNT", core.VariantOptimized) }
func BenchmarkExtractBioUNTUnopt(b *testing.B) {
	benchExtract(b, "GSE5140UNT", core.VariantUnoptimized)
}
func BenchmarkExtractBioNONOpt(b *testing.B) {
	benchExtract(b, "GSE17072NON", core.VariantOptimized)
}

// --- DESIGN.md §5 ablation: schedules ---

func benchSchedule(b *testing.B, s core.Schedule) {
	g := benchGraph(b, "B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(g, core.Options{Schedule: s}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleDataflow(b *testing.B)    { benchSchedule(b, core.ScheduleDataflow) }
func BenchmarkScheduleAsync(b *testing.B)       { benchSchedule(b, core.ScheduleAsync) }
func BenchmarkScheduleSynchronous(b *testing.B) { benchSchedule(b, core.ScheduleSynchronous) }

// --- Ablation: queue ordering ---

func BenchmarkQueueOrderSorted(b *testing.B) {
	g := benchGraph(b, "B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueOrderArbitrary(b *testing.B) {
	g := benchGraph(b, "B")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(g, core.Options{UnsortedQueue: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section II baselines ---

func BenchmarkSerialDearing(b *testing.B) {
	g := benchGraph(b, "G")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := dearing.Extract(g, 0); r.NumChordalEdges() == 0 {
			b.Fatal("empty extraction")
		}
	}
}

func BenchmarkPartitioned(b *testing.B) {
	g := benchGraph(b, "G")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := partition.Extract(g, 8); len(r.Edges) == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkShardedExtract measures the sharded pipeline (per-shard
// Algorithm 1 + chordality-preserving border reconciliation) against
// BenchmarkExtract* (whole-graph kernel) and BenchmarkPartitioned (the
// serial-kernel distributed baseline).
func BenchmarkShardedExtract(b *testing.B) {
	g := benchGraph(b, "G")
	b.SetBytes(int64(g.NumEdges()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := shard.Extract(g, shard.Options{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		if r.NumChordalEdges() == 0 || !r.Chordal {
			b.Fatal("bad sharded extraction")
		}
	}
}

// BenchmarkShardedExtractStitchOnly isolates the reconciliation cost:
// spanning stitch only, no exact border admission.
func BenchmarkShardedExtractStitchOnly(b *testing.B) {
	g := benchGraph(b, "G")
	b.SetBytes(int64(g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Extract(g, shard.Options{Shards: 8, StitchOnly: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched multi-graph throughput (the paper's suite shape) ---

// batchSuiteSpecs is the 20-graph bio-suite shape: the four
// gene-correlation datasets at five seeds each, downscaled so one
// graph extracts in milliseconds — the regime where per-run pool
// spawning dominates and batching pays.
func batchSuiteSpecs() []chordal.Spec {
	var specs []chordal.Spec
	for seed := 1; seed <= 5; seed++ {
		for _, d := range []string{"gse5140-crt", "gse5140-unt", "gse17072-ctl", "gse17072-non"} {
			specs = append(specs, chordal.Spec{Source: fmt.Sprintf("%s:32:%d", d, seed)})
		}
	}
	return specs
}

// BenchmarkBatch runs the suite through chordal.Batch: one persistent
// pool and shared budget, items overlapping. Compare against
// BenchmarkBatchSequential, the per-run baseline.
func BenchmarkBatch(b *testing.B) {
	specs := batchSuiteSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Failed(); n != 0 {
			b.Fatalf("%d items failed", n)
		}
	}
}

// BenchmarkBatchSequential is the baseline the batch layer replaces:
// N independent Spec.Run calls, each spinning up and tearing down its
// own full-width worker set.
func BenchmarkBatchSequential(b *testing.B) {
	specs := batchSuiteSpecs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchDedup is the suite with repeated submissions — each
// dataset requested five times, the shape of re-run analyses over a
// shared suite. Batch collapses the 20 items onto 4 executions by
// canonical key; the sequential baseline pays all 20. This win is
// core-count independent, where BenchmarkBatch's overlap win needs
// multiple CPUs.
func BenchmarkBatchDedup(b *testing.B) {
	var specs []chordal.Spec
	for rep := 0; rep < 5; rep++ {
		for _, d := range []string{"gse5140-crt", "gse5140-unt", "gse17072-ctl", "gse17072-non"} {
			specs = append(specs, chordal.Spec{Source: d + ":32:7"})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Unique != 4 || res.Failed() != 0 {
			b.Fatalf("unique=%d failed=%d", res.Unique, res.Failed())
		}
	}
}

// --- Verification cost ---

func BenchmarkVerifyChordal(b *testing.B) {
	g := benchGraph(b, "G")
	res, err := core.Extract(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sub := res.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verify.IsChordal(sub) {
			b.Fatal("not chordal")
		}
	}
}

// --- Figure 7 kernel: how fast are the subset tests themselves ---

func BenchmarkSubsetRate(b *testing.B) {
	g := benchGraph(b, "ER")
	b.ResetTimer()
	var tested int64
	for i := 0; i < b.N; i++ {
		res, err := core.Extract(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tested += res.TotalTested()
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(tested)/b.Elapsed().Seconds(), "tests/s")
	}
}

// --- Broader families (paper future work) ---

func BenchmarkExtractGNM(b *testing.B) {
	g := must(synth.GNM(1<<benchScale, 8<<benchScale, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractGeometric(b *testing.B) {
	n := 1 << benchScale
	g := must(synth.RandomGeometric(n, synth.GeometricRadiusForDegree(n, 8), 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractKTreeNoise(b *testing.B) {
	g, _, err := synth.KTreePlusNoise(1<<benchScale, 3, 1<<benchScale, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Elimination application kernels ---

func BenchmarkMinDegreeOrder(b *testing.B) {
	g := must(synth.GNM(1024, 4096, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if order, err := elimination.MinDegreeOrder(context.Background(), g); err != nil || len(order) != 1024 {
			b.Fatal("bad order")
		}
	}
}

func BenchmarkFillChordalGuided(b *testing.B) {
	g, _, err := synth.KTreePlusNoise(1024, 3, 512, 7)
	if err != nil {
		b.Fatal(err)
	}
	order, err := elimination.ChordalGuidedOrder(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elimination.Fill(g, order); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Facade sanity under bench load ---

func BenchmarkFacadeExtract(b *testing.B) {
	g, err := rmat.Generate(rmat.PresetParams(rmat.ER, 12, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chordal.Extract(g, chordal.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
