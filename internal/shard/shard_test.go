package shard

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/partition"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
	"chordal/internal/xrand"
)

// must returns a generator's graph and panics on its error: every
// generator call in this package's tests names parameters inside the
// generator's bounds.
func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func rmatG(t testing.TB, scale int) *graph.Graph {
	t.Helper()
	g, err := rmat.Generate(rmat.PresetParams(rmat.G, scale, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOneShardMatchesStitchedCore pins the degenerate case: one shard
// with stitch-only reconciliation is exactly the whole-graph kernel
// plus the spanning stitch (core's StitchComponents), byte for byte.
func TestOneShardMatchesStitchedCore(t *testing.T) {
	g := rmatG(t, 10)
	sres, err := Extract(g, Options{Shards: 1, StitchOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := core.Extract(g, core.Options{StitchComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sres.Edges, cres.Edges) {
		t.Fatalf("shards=1 edge set (%d) differs from core+stitch (%d)",
			len(sres.Edges), len(cres.Edges))
	}
	if sres.BorderTotal != 0 || sres.BorderBridges != 0 {
		t.Fatalf("one shard reported border edges: %+v", sres)
	}
}

// TestShardedChordalAcrossShardCounts is the acceptance property: for
// shards in {1, 2, 8} on an R-MAT input, the merged subgraph is
// verified chordal, structurally valid, and the reported counters are
// internally consistent.
func TestShardedChordalAcrossShardCounts(t *testing.T) {
	g := rmatG(t, 10)
	for _, shards := range []int{1, 2, 8} {
		for _, stitchOnly := range []bool{false, true} {
			res, err := Extract(g, Options{Shards: shards, StitchOnly: stitchOnly})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Chordal || !verify.IsChordal(res.Subgraph) {
				t.Fatalf("shards=%d stitchOnly=%t: merged subgraph not chordal", shards, stitchOnly)
			}
			// The self-check keeps the MCS order it validated: the
			// certificate the verify stage and the audit reuse.
			if !slices.Equal(res.PEO, verify.MCSOrder(res.Subgraph)) || !verify.IsPEO(res.Subgraph, res.PEO) {
				t.Fatalf("shards=%d stitchOnly=%t: PEO is not the subgraph's validated MCS order", shards, stitchOnly)
			}
			if err := res.Subgraph.Validate(); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if len(res.Shards) != shards {
				t.Fatalf("shards=%d: %d shard stats", shards, len(res.Shards))
			}
			interior := 0
			for _, st := range res.Shards {
				interior += st.ChordalEdges
				if st.Iterations < 1 && st.InteriorEdges > 0 {
					t.Fatalf("shard %d: no iterations for %d interior edges", st.Shard, st.InteriorEdges)
				}
			}
			want := interior + res.StitchedEdges + res.BorderAdmitted
			if got := len(res.Edges); got != want {
				t.Fatalf("shards=%d: %d edges, counters sum to %d", shards, got, want)
			}
			if stitchOnly && res.BorderAdmitted != 0 {
				t.Fatalf("stitch-only run admitted %d border edges", res.BorderAdmitted)
			}
			if int64(res.Subgraph.NumEdges()) != int64(len(res.Edges)) {
				t.Fatalf("subgraph has %d edges, result %d", res.Subgraph.NumEdges(), len(res.Edges))
			}
		}
	}
}

// TestSubgraphMatchesBuilder checks the merged edge list and its
// sort-free CSR: the list is oriented and strictly ascending, so it
// holds no duplicate, and Subgraph equals the general edge-list build
// of it (offsets, adjacency, sortedness), with and without repair.
func TestSubgraphMatchesBuilder(t *testing.T) {
	for _, g := range []*graph.Graph{rmatG(t, 9), bipartiteGraph(300, 1200, 5)} {
		for _, shards := range []int{2, 4, 7} {
			for _, repair := range []bool{false, true} {
				res, err := Extract(g, Options{Shards: shards, Repair: repair})
				if err != nil {
					t.Fatal(err)
				}
				us := make([]int32, len(res.Edges))
				vs := make([]int32, len(res.Edges))
				for i, e := range res.Edges {
					if e.U >= e.V || i > 0 && (res.Edges[i-1].U > e.U || res.Edges[i-1].U == e.U && res.Edges[i-1].V >= e.V) {
						t.Fatalf("shards=%d repair=%t: edge %d %v unoriented or out of order", shards, repair, i, e)
					}
					us[i], vs[i] = e.U, e.V
				}
				want := graph.SubgraphFromEdges(res.NumVertices, us, vs)
				if !reflect.DeepEqual(res.Subgraph, want) {
					t.Fatalf("shards=%d repair=%t: Subgraph differs from SubgraphFromEdges", shards, repair)
				}
			}
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the byte-identity property:
// under the dataflow schedule the merged edge set must not depend on
// how many workers ran the shards. Run under -race in CI.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := rmatG(t, 9)
	for _, shards := range []int{1, 2, 8} {
		var base *Result
		for _, workers := range []int{1, 2, 3, 8} {
			opts := Options{Shards: shards}
			opts.Core.Workers = workers
			res, err := Extract(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(res.Edges, base.Edges) {
				t.Fatalf("shards=%d workers=%d: edge set differs from workers=1", shards, workers)
			}
		}
	}
}

// bipartiteGraph builds a graph whose every edge crosses the midpoint
// of the id range: with two contiguous shards, every single edge is a
// border edge and the shard kernels see empty interiors.
func bipartiteGraph(n int, m int, seed uint64) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	us := make([]int32, 0, m)
	vs := make([]int32, 0, m)
	half := n / 2
	for i := 0; i < m; i++ {
		us = append(us, int32(rng.Intn(half)))
		vs = append(vs, int32(half+rng.Intn(n-half)))
	}
	return graph.BuildFromEdges(n, us, vs)
}

// TestBorderHeavyAdversarial drives the reconciliation with a graph
// built to maximize border edges: a random bipartite graph across the
// two-shard boundary. Interior extraction contributes nothing; the
// stitch and admission passes must still produce a chordal subgraph.
func TestBorderHeavyAdversarial(t *testing.T) {
	g := bipartiteGraph(600, 2400, 11)
	res, err := Extract(g, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.BorderTotal) != g.NumEdges() {
		t.Fatalf("border edges %d, want all %d", res.BorderTotal, g.NumEdges())
	}
	for _, st := range res.Shards {
		if st.ChordalEdges != 0 {
			t.Fatalf("shard %d extracted %d interior edges from a bipartite cut", st.Shard, st.ChordalEdges)
		}
	}
	if !res.Chordal {
		t.Fatal("border-heavy merge not chordal")
	}
	// A bipartite graph has no triangles, so the chordal subgraph is a
	// forest; the spanning stitch alone must recover a spanning
	// structure and admission can only add edges that keep it chordal
	// (for bipartite inputs, none beyond the forest: any extra edge
	// closes an even cycle of length >= 4).
	if res.BorderAdmitted != 0 {
		t.Fatalf("admitted %d border edges into a bipartite (triangle-free) graph", res.BorderAdmitted)
	}
	if res.StitchedEdges == 0 || len(res.Edges) != res.StitchedEdges {
		t.Fatalf("stitched=%d total=%d, want a pure spanning forest", res.StitchedEdges, len(res.Edges))
	}
}

// TestShardRepairReachesMaximality checks the optional merged repair
// pass: on a small input the result must be maximal chordal — no edge
// of g can be added — closing both the §5 gap and the sharding gap.
func TestShardRepairReachesMaximality(t *testing.T) {
	g := must(synth.GNM(400, 1600, 3))
	res, err := Extract(g, Options{Shards: 4, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Chordal {
		t.Fatal("repaired merge not chordal")
	}
	if !verify.IsMaximalChordal(g, res.Subgraph) {
		t.Fatal("repaired sharded extraction is not maximal")
	}
	if res.RepairedEdges == 0 {
		t.Log("repair pass added nothing (merge already maximal)")
	}
}

// TestShardedKTreeKeepsEverything: a k-tree is chordal, so extraction
// with one shard keeps every edge; with many shards the stitch +
// admission passes must still return a chordal subgraph and the repair
// pass recovers maximality.
func TestShardedKTreeKeepsEverything(t *testing.T) {
	g := must(synth.KTree(500, 3, 9))
	res, err := Extract(g, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Edges)) != g.NumEdges() {
		t.Fatalf("one-shard extraction of a chordal graph kept %d of %d edges",
			len(res.Edges), g.NumEdges())
	}
	res8, err := Extract(g, Options{Shards: 8, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res8.Chordal || !verify.IsMaximalChordal(g, res8.Subgraph) {
		t.Fatal("sharded+repaired k-tree extraction lost maximality or chordality")
	}
}

// TestBorderFootprint pins the allocation of a border-heavy sharded
// extraction: gnm:20000:150000:7 cut into 8 shards on one worker, where
// most of the input crosses shards and most border checks reject.
// Deciding border edges without queueing the rejections allocates about
// 11.6 MiB per call. Queueing each rejection in the deferred queue and
// its dedup map, which nothing read without repair and the repair pass
// rebuilt from its own scan, allocated 25.5 MiB.
func TestBorderFootprint(t *testing.T) {
	const limit = 18 << 20
	const calls = 2
	g := must(synth.GNM(20000, 150000, 7, 1))
	opts := Options{Shards: 8, Core: core.Options{Workers: 1}}
	if _, err := Extract(g, opts); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := Extract(g, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > limit {
		t.Fatalf("8-shard extraction of gnm:20000:150000:7 allocated %d bytes per call, want at most %d", per, limit)
	}
}

// TestShardClampAndTinyGraphs covers degenerate shapes: more shards
// than vertices, empty and single-vertex graphs.
func TestShardClampAndTinyGraphs(t *testing.T) {
	g := must(synth.GNM(5, 6, 1))
	res, err := Extract(g, Options{Shards: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 5 {
		t.Fatalf("shards clamped to %d, want 5", len(res.Shards))
	}
	if !res.Chordal {
		t.Fatal("tiny merge not chordal")
	}
	empty := graph.BuildFromEdges(0, nil, nil)
	if res, err = Extract(empty, Options{Shards: 4}); err != nil || len(res.Edges) != 0 {
		t.Fatalf("empty graph: res=%+v err=%v", res, err)
	}
}

// TestShardCancellation: a pre-canceled context returns ctx.Err() with
// no partial result.
func TestShardCancellation(t *testing.T) {
	g := rmatG(t, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtractContext(ctx, g, Options{Shards: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// countingCtx is a context whose Err counts its calls and reports
// context.Canceled from call limit+1 on (never, when limit < 0).
type countingCtx struct {
	context.Context
	calls, limit int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.limit >= 0 && c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestReconcileObservesContext runs a stitch-only reconciliation of the
// shard kernels' merged edge sets under a context that is canceled
// from its first check on, so the cancel lands after the kernels' last
// check: the stitch's input scan checks the context every 1024 edges,
// and Reconcile must return context.Canceled itself rather than finish
// and leave the cancellation to its caller. One shard has no border;
// four have one.
func TestReconcileObservesContext(t *testing.T) {
	g := rmatG(t, 10)
	n := g.NumVertices()
	input := func(fn func(u, v int32) bool) error { g.EdgesWhile(fn); return nil }
	for _, parts := range []int{1, 4} {
		opts := Options{Shards: parts, StitchOnly: true}
		var kernels []core.Edge
		for p := 0; p < parts; p++ {
			lo, hi := partition.Bounds(n, parts, p)
			ids := make([]int32, 0, hi-lo)
			for v := lo; v < hi; v++ {
				ids = append(ids, v)
			}
			sub, _ := g.InducedSubgraph(ids)
			edges, _, err := opts.RunShard(context.Background(), p, sub, lo, 1)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, edges...)
		}
		probe := &countingCtx{Context: context.Background(), limit: -1}
		res := &Result{NumVertices: n, Edges: slices.Clone(kernels)}
		if err := res.Reconcile(probe, input, parts, opts); err != nil {
			t.Fatal(err)
		}
		if res.StitchedEdges == 0 || probe.calls == 0 {
			t.Fatalf("parts=%d: the stitch added %d edges and checked the context %d times; want both", parts, res.StitchedEdges, probe.calls)
		}
		ctx := &countingCtx{Context: context.Background(), limit: 0}
		res = &Result{NumVertices: n, Edges: slices.Clone(kernels)}
		if err := res.Reconcile(ctx, input, parts, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("parts=%d: a canceled stitch-only reconciliation returned %v, want context.Canceled", parts, err)
		}
	}
}

// TestOnShardIteration checks the progress hook fires with shard
// indices in range.
func TestOnShardIteration(t *testing.T) {
	g := rmatG(t, 9)
	var mu = make(chan struct{}, 1)
	seen := map[int]int{}
	opts := Options{Shards: 4}
	opts.OnShardIteration = func(shard int, it core.IterationStats) {
		mu <- struct{}{}
		seen[shard]++
		<-mu
	}
	if _, err := Extract(g, opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no shard iteration callbacks")
	}
	for s := range seen {
		if s < 0 || s >= 4 {
			t.Fatalf("shard index %d out of range", s)
		}
	}
}

// BenchmarkShardExtractKTree times a 4-shard extraction of the
// sharded-ktree benchmark graph: per-shard kernels, border admission,
// and Finalize's counting sort, CSR build and chordality check.
//
//	go test -bench=ShardExtractKTree -run '^$' ./internal/shard
func BenchmarkShardExtractKTree(b *testing.B) {
	g := must(synth.KTree(800, 24, 501))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(g, Options{Shards: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
