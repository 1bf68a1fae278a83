package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/verify"
	"chordal/internal/xrand"
)

// buildGraph constructs a graph from an edge list over n vertices.
func buildGraph(n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// randomGraph returns an Erdős–Rényi-style graph with n vertices and
// about m edges, deterministic in seed.
func randomGraph(n, m int, seed uint64) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

var allSchedules = []Schedule{ScheduleDataflow, ScheduleAsync, ScheduleSynchronous}
var allVariants = []Variant{VariantOptimized, VariantUnoptimized}

func TestExtractNilGraph(t *testing.T) {
	if _, err := Extract(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestExtractEmptyAndTrivial(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := graph.NewBuilder(n).Build()
		res, err := Extract(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumChordalEdges() != 0 {
			t.Fatalf("n=%d: %d edges from edgeless graph", n, res.NumChordalEdges())
		}
		if len(res.Iterations) != 0 {
			t.Fatalf("n=%d: %d iterations for edgeless graph", n, len(res.Iterations))
		}
	}
	// A single edge is always extracted.
	g := buildGraph(2, [][2]int32{{0, 1}})
	res, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChordalEdges() != 1 {
		t.Fatalf("single edge not extracted")
	}
}

func TestExtractTriangle(t *testing.T) {
	g := buildGraph(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	for _, s := range allSchedules {
		res, err := Extract(g, Options{Schedule: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumChordalEdges() != 3 {
			t.Fatalf("%v: triangle extracted %d edges", s, res.NumChordalEdges())
		}
	}
}

func TestExtractC4DropsOneEdge(t *testing.T) {
	// A 4-cycle's maximal chordal subgraph is any 3-edge path.
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	for _, s := range allSchedules {
		res, err := Extract(g, Options{Schedule: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumChordalEdges() != 3 {
			t.Fatalf("%v: C4 extracted %d edges, want 3", s, res.NumChordalEdges())
		}
		if !verify.IsChordal(res.ToGraph()) {
			t.Fatalf("%v: C4 result not chordal", s)
		}
	}
}

func TestExtractCompleteGraph(t *testing.T) {
	// K_n is chordal; the algorithm must keep every edge: each vertex's
	// chordal set grows to exactly its smaller neighbors.
	for _, n := range []int{3, 5, 10, 32} {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b.AddEdge(int32(i), int32(j))
			}
		}
		g := b.Build()
		for _, s := range allSchedules {
			res, err := Extract(g, Options{Schedule: s})
			if err != nil {
				t.Fatal(err)
			}
			if int64(res.NumChordalEdges()) != g.NumEdges() {
				t.Fatalf("K%d %v: kept %d of %d edges", n, s, res.NumChordalEdges(), g.NumEdges())
			}
		}
	}
}

func TestStarCenterIdSensitivity(t *testing.T) {
	// The id-order selection pathology (DESIGN.md §5): a star whose
	// center has the highest id keeps only one edge, while a center at
	// id 0 keeps them all. This is inherent to Algorithm 1's subset
	// rule, not a bug in this implementation.
	lowCenter := buildGraph(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	res, err := Extract(lowCenter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChordalEdges() != 4 {
		t.Fatalf("low-id center kept %d of 4 edges", res.NumChordalEdges())
	}

	highCenter := buildGraph(5, [][2]int32{{4, 0}, {4, 1}, {4, 2}, {4, 3}})
	res, err = Extract(highCenter, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChordalEdges() != 1 {
		t.Fatalf("high-id center kept %d edges, expected the documented 1", res.NumChordalEdges())
	}
	// RepairMaximality must recover the remaining star edges.
	res, err = Extract(highCenter, Options{RepairMaximality: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChordalEdges() != 4 {
		t.Fatalf("repair recovered only %d of 4 edges", res.NumChordalEdges())
	}
	if res.RepairedEdges != 3 {
		t.Fatalf("RepairedEdges = %d, want 3", res.RepairedEdges)
	}
}

func TestChordalityAllConfigurations(t *testing.T) {
	// Theorem 1 must hold under every schedule, variant and worker
	// count.
	graphs := map[string]*graph.Graph{
		"random-sparse": randomGraph(300, 900, 1),
		"random-dense":  randomGraph(100, 2000, 2),
		"rmat-b":        mustRMAT(t, rmat.B, 10, 3),
	}
	for name, g := range graphs {
		for _, s := range allSchedules {
			for _, v := range allVariants {
				for _, w := range []int{1, 4} {
					res, err := Extract(g, Options{Schedule: s, Variant: v, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if !verify.IsChordal(res.ToGraph()) {
						t.Fatalf("%s/%v/%v/w%d: not chordal", name, s, v, w)
					}
				}
			}
		}
	}
}

func mustRMAT(t *testing.T, p rmat.Preset, scale int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := rmat.Generate(rmat.PresetParams(p, scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDataflowDeterministic(t *testing.T) {
	g := mustRMAT(t, rmat.B, 11, 9)
	ref, err := Extract(g, Options{Workers: 1, Variant: VariantOptimized})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range allVariants {
		for _, w := range []int{2, 3, 8} {
			for _, uq := range []bool{false, true} {
				res, err := Extract(g, Options{Workers: w, Variant: v, UnsortedQueue: uq})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Edges) != len(ref.Edges) {
					t.Fatalf("%v/w%d/uq=%v: %d edges vs %d", v, w, uq, len(res.Edges), len(ref.Edges))
				}
				for i := range res.Edges {
					if res.Edges[i] != ref.Edges[i] {
						t.Fatalf("%v/w%d/uq=%v: edge %d differs", v, w, uq, i)
					}
				}
			}
		}
	}
}

func TestSynchronousDeterministic(t *testing.T) {
	g := mustRMAT(t, rmat.G, 10, 4)
	ref, err := Extract(g, Options{Schedule: ScheduleSynchronous, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7} {
		res, err := Extract(g, Options{Schedule: ScheduleSynchronous, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Edges) != len(ref.Edges) {
			t.Fatalf("w%d: %d vs %d edges", w, len(res.Edges), len(ref.Edges))
		}
		for i := range res.Edges {
			if res.Edges[i] != ref.Edges[i] {
				t.Fatalf("w%d: edge %d differs", w, i)
			}
		}
	}
}

func TestVariantsAgreeUnderDataflow(t *testing.T) {
	// Dataflow output is schedule-free, so Opt and Unopt must extract
	// the identical edge set.
	g := randomGraph(500, 3000, 5)
	a, err := Extract(g, Options{Variant: VariantOptimized})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(g.SortAdjacency(), Options{Variant: VariantUnoptimized})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatalf("Opt %d vs Unopt %d edges", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs between variants", i)
		}
	}
}

// TestEdgesAreRealAndSorted checks that every configuration's edge
// list is oriented, drawn from the input and in strictly ascending
// (U, V) order, and that it matches the chordal sets it is built from.
func TestEdgesAreRealAndSorted(t *testing.T) {
	g := randomGraph(200, 1000, 6)
	for _, s := range allSchedules {
		for _, v := range allVariants {
			for _, unsorted := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					opts := Options{Schedule: s, Variant: v, UnsortedQueue: unsorted, Workers: workers}
					res, err := Extract(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					sets := 0
					for w := int32(0); w < 200; w++ {
						sets += len(res.ChordalNeighbors(w))
					}
					if sets != len(res.Edges) {
						t.Fatalf("%+v: chordal sets hold %d entries, edge list %d", opts, sets, len(res.Edges))
					}
					for i, e := range res.Edges {
						if e.U >= e.V {
							t.Fatalf("%+v: edge %d not oriented: %v", opts, i, e)
						}
						if !g.HasEdge(e.U, e.V) || !res.HasChordalEdge(e.U, e.V) {
							t.Fatalf("%+v: edge %d not in input graph or chordal sets: %v", opts, i, e)
						}
						if i > 0 {
							prev := res.Edges[i-1]
							if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
								t.Fatalf("%+v: edges not sorted at %d", opts, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestToGraphMatchesBuilder checks the sort-free CSR of ToGraph against
// the general edge-list build: same offsets, same adjacency, sorted. It
// covers the empty graph, isolated vertices and results grown by the
// repair and stitch post-passes.
func TestToGraphMatchesBuilder(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"empty", graph.NewBuilder(0).Build(), Options{}},
		{"isolated", graph.NewBuilder(5).Build(), Options{}},
		{"isolated-and-edges", buildGraph(9, [][2]int32{{1, 3}, {3, 5}, {5, 7}, {7, 1}, {1, 5}}), Options{}},
		{"random", randomGraph(300, 1500, 11), Options{Workers: 4}},
		{"repair", randomGraph(300, 1500, 12), Options{RepairMaximality: true}},
		{"stitch", randomGraph(400, 300, 13), Options{StitchComponents: true}},
	}
	for _, c := range cases {
		res, err := Extract(c.g, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.opts.RepairMaximality && res.RepairedEdges == 0 || c.opts.StitchComponents && res.StitchedEdges == 0 {
			t.Fatalf("%s: the post-pass added no edge, so the case does not cover it", c.name)
		}
		us := make([]int32, len(res.Edges))
		vs := make([]int32, len(res.Edges))
		for i, e := range res.Edges {
			us[i], vs[i] = e.U, e.V
		}
		want := graph.BuildFromEdges(res.NumVertices, us, vs, 0)
		got := res.ToGraph()
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) || got.Sorted != want.Sorted {
			t.Fatalf("%s: ToGraph differs from BuildFromEdges", c.name)
		}
	}
}

// TestStitchAndRepairKeepChordalSets checks the chordal sets that the
// post-passes rebuild from the grown edge list: after repair, stitch
// and both, on either code path, ChordalNeighbors(v) lists exactly the
// smaller endpoints of v's edges in ascending order, and HasChordalEdge
// holds for every edge and for no other pair of the input.
func TestStitchAndRepairKeepChordalSets(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"repair", randomGraph(300, 1500, 12), Options{RepairMaximality: true}},
		{"stitch", randomGraph(400, 300, 13), Options{StitchComponents: true}},
		{"both", randomGraph(400, 600, 14), Options{RepairMaximality: true, StitchComponents: true}},
		{"both-unopt", randomGraph(400, 600, 14), Options{RepairMaximality: true, StitchComponents: true, Variant: VariantUnoptimized}},
	}
	for _, c := range cases {
		res, err := Extract(c.g, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.RepairedEdges+res.StitchedEdges == 0 {
			t.Fatalf("%s: the post-passes added no edge, so the case does not cover them", c.name)
		}
		want := make([][]int32, res.NumVertices)
		for _, e := range res.Edges {
			want[e.V] = append(want[e.V], e.U)
			if !res.HasChordalEdge(e.U, e.V) {
				t.Fatalf("%s: HasChordalEdge(%d,%d) is false for an edge of the list", c.name, e.U, e.V)
			}
		}
		for v := int32(0); int(v) < res.NumVertices; v++ {
			if got := res.ChordalNeighbors(v); !slices.Equal(got, want[v]) {
				t.Fatalf("%s: ChordalNeighbors(%d) = %v, want %v", c.name, v, got, want[v])
			}
		}
		inList := 0
		c.g.Edges(func(u, v int32) {
			if res.HasChordalEdge(u, v) {
				inList++
			}
		})
		if inList != len(res.Edges) {
			t.Fatalf("%s: HasChordalEdge holds for %d input edges, the list has %d", c.name, inList, len(res.Edges))
		}
	}
}

func TestResultAccessors(t *testing.T) {
	g := randomGraph(100, 400, 7)
	res, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// HasChordalEdge agrees with the edge list.
	inSet := map[Edge]bool{}
	for _, e := range res.Edges {
		inSet[e] = true
	}
	g.Edges(func(u, v int32) {
		if res.HasChordalEdge(u, v) != inSet[Edge{U: u, V: v}] {
			t.Fatalf("HasChordalEdge(%d,%d) disagrees with edge list", u, v)
		}
		if res.HasChordalEdge(v, u) != res.HasChordalEdge(u, v) {
			t.Fatal("HasChordalEdge not symmetric")
		}
	})
	if res.HasChordalEdge(5, 5) {
		t.Fatal("self edge reported")
	}
	// ChordalNeighbors are ascending smaller ids matching the edges.
	count := 0
	for v := int32(0); v < 100; v++ {
		nb := res.ChordalNeighbors(v)
		for i, u := range nb {
			if u >= v {
				t.Fatalf("chordal neighbor %d >= vertex %d", u, v)
			}
			if i > 0 && nb[i-1] >= u {
				t.Fatalf("chordal neighbors of %d not ascending", v)
			}
			count++
		}
	}
	if count != len(res.Edges) {
		t.Fatalf("chordal sets hold %d entries, edge list %d", count, len(res.Edges))
	}
	// Totals line up with iteration stats.
	if res.TotalAccepted() != int64(len(res.Edges)) {
		t.Fatalf("TotalAccepted %d != %d edges", res.TotalAccepted(), len(res.Edges))
	}
	if res.TotalTested() < res.TotalAccepted() {
		t.Fatal("tested < accepted")
	}
	if len(res.QueueSizes()) != len(res.Iterations) {
		t.Fatal("QueueSizes length mismatch")
	}
}

func TestEveryEdgeTestedExactlyOnce(t *testing.T) {
	// Each edge {u,v}, u<v, is subset-tested exactly once (when u is
	// v's current lowest parent), under the synchronous and dataflow
	// schedules.
	g := randomGraph(200, 1200, 8)
	for _, s := range []Schedule{ScheduleDataflow, ScheduleSynchronous} {
		res, err := Extract(g, Options{Schedule: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTested() != g.NumEdges() {
			t.Fatalf("%v: tested %d, want %d", s, res.TotalTested(), g.NumEdges())
		}
	}
}

func TestOnEventTrace(t *testing.T) {
	// With one worker the trace covers every edge exactly once, and
	// accepted events match the final edge set.
	g := randomGraph(60, 200, 9)
	type ev struct {
		parent, child int32
		accepted      bool
	}
	var events []ev
	res, err := Extract(g, Options{Workers: 1, OnEvent: func(_ int, p, c int32, acc bool) {
		events = append(events, ev{p, c, acc})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != g.NumEdges() {
		t.Fatalf("%d events for %d edges", len(events), g.NumEdges())
	}
	accepted := 0
	for _, e := range events {
		if e.parent >= e.child {
			t.Fatalf("event parent %d >= child %d", e.parent, e.child)
		}
		if e.accepted {
			accepted++
			if !res.HasChordalEdge(e.parent, e.child) {
				t.Fatal("accepted event absent from result")
			}
		}
	}
	if accepted != res.NumChordalEdges() {
		t.Fatalf("%d accepted events, %d edges", accepted, res.NumChordalEdges())
	}
}

func TestIterationStatsConsistency(t *testing.T) {
	g := mustRMAT(t, rmat.ER, 10, 10)
	res, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	for i, it := range res.Iterations {
		if it.Index != i+1 {
			t.Fatalf("iteration %d has index %d", i, it.Index)
		}
		if it.QueueSize <= 0 {
			t.Fatalf("iteration %d queue size %d", i, it.QueueSize)
		}
		if it.EdgesAccepted > it.EdgesTested {
			t.Fatalf("iteration %d accepted > tested", i)
		}
		if it.ScanWork < 0 || it.Duration < 0 {
			t.Fatalf("iteration %d negative work/duration", i)
		}
	}
}

func TestChordalityProperty(t *testing.T) {
	// Random graphs of arbitrary shape always yield chordal subgraphs,
	// and repair keeps them chordal while achieving maximality.
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 3 + int(nRaw%120)
		m := int(mRaw % 1200)
		g := randomGraph(n, m, seed)
		res, err := Extract(g, Options{RepairMaximality: true})
		if err != nil {
			return false
		}
		sub := res.ToGraph()
		if !verify.IsChordal(sub) {
			return false
		}
		return len(verify.AuditMaximality(g, sub, 1)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStitchConnectsComponents(t *testing.T) {
	// Two triangles joined by one edge that the subset test rejects.
	g := buildGraph(7, [][2]int32{
		{0, 1}, {1, 2}, {0, 2}, // triangle A
		{4, 5}, {5, 6}, {4, 6}, // triangle B
		{2, 4}, // bridge
		{3, 0}, // pendant through id 3
	})
	res, err := Extract(g, Options{StitchComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.ToGraph()
	if !verify.IsChordal(sub) {
		t.Fatal("stitched result not chordal")
	}
	// All 7 vertices reachable from 0 in the result.
	seen := make([]bool, 7)
	stack := []int32{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range sub.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d not connected after stitch", v)
		}
	}
}

func TestRepairAuditsToZero(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		g := randomGraph(150, 900, seed)
		res, err := Extract(g, Options{RepairMaximality: true})
		if err != nil {
			t.Fatal(err)
		}
		sub := res.ToGraph()
		if !verify.IsChordal(sub) {
			t.Fatal("repaired subgraph not chordal")
		}
		if viol := verify.AuditMaximality(g, sub, 0); len(viol) != 0 {
			t.Fatalf("seed %d: %d violations after repair", seed, len(viol))
		}
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

// TestRepairObservesContext cancels between the kernel and the repair
// pass: the context's Err turns non-nil only after as many calls as a
// run without repair makes, so only the repair pass can see it. The
// smaller graph has fewer than 1024 edges, so the retest loop must
// notice; the larger one is caught by the input scan.
func TestRepairObservesContext(t *testing.T) {
	for _, g := range []*graph.Graph{randomGraph(150, 900, 11), randomGraph(400, 3000, 12)} {
		opts := Options{Workers: 1}
		probe := &countingCtx{Context: context.Background(), limit: -1}
		if _, err := ExtractContext(probe, g, opts); err != nil {
			t.Fatal(err)
		}
		opts.RepairMaximality = true
		res, err := ExtractContext(context.Background(), g, opts)
		if err != nil || res.RepairedEdges == 0 {
			t.Fatalf("%d edges: uncanceled repair = %v (repaired %d); want work to cancel", g.NumEdges(), err, res.RepairedEdges)
		}
		ctx := &countingCtx{Context: context.Background(), limit: probe.calls}
		if _, err := ExtractContext(ctx, g, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d edges: a context canceled after the kernel's last check returned %v, want context.Canceled", g.NumEdges(), err)
		}
	}
}

// TestStitchObservesContext cancels between the kernel and the stitch
// pass, as TestRepairObservesContext does for repair: only the stitch's
// input scan, which checks the context every 1024 edges, can see it.
// The graph has 2 000 vertices and about 1 500 edges, so the stitch
// joins hundreds of components.
func TestStitchObservesContext(t *testing.T) {
	g := randomGraph(2000, 1500, 13)
	opts := Options{Workers: 1}
	probe := &countingCtx{Context: context.Background(), limit: -1}
	if _, err := ExtractContext(probe, g, opts); err != nil {
		t.Fatal(err)
	}
	opts.StitchComponents = true
	res, err := ExtractContext(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StitchedEdges == 0 || g.NumEdges() < 1024 {
		t.Fatalf("the stitch added %d edges to %d input edges; want a scan that checks the context", res.StitchedEdges, g.NumEdges())
	}
	ctx := &countingCtx{Context: context.Background(), limit: probe.calls}
	if _, err := ExtractContext(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("a context canceled after the kernel's last check returned %v, want context.Canceled", err)
	}
}

func TestChordalInputKeptWhole(t *testing.T) {
	// Build a chordal graph (a k-tree-ish stacking of triangles) and
	// verify extraction keeps it entirely when ids follow construction
	// order: each new vertex attaches to a clique of smaller ids, so
	// every subset test passes.
	b := graph.NewBuilder(50)
	b.AddEdge(0, 1)
	rng := xrand.NewXoshiro256(99)
	for v := int32(2); v < 50; v++ {
		// Attach to a random edge among smaller ids: {u, w} adjacent.
		u := int32(rng.Intn(int(v)))
		b.AddEdge(u, v)
		// Also attach to one of u's smaller chordal anchors if any: use
		// u-1 when adjacent to keep it simple — attach to vertex 0 as
		// the common anchor instead for guaranteed chordality.
		b.AddEdge(0, v)
		b.AddEdge(0, u)
	}
	g := b.Build()
	if !verify.IsChordal(g) {
		t.Skip("construction not chordal; skip")
	}
	res, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.NumChordalEdges()) != g.NumEdges() {
		t.Fatalf("chordal input lost edges: %d of %d", res.NumChordalEdges(), g.NumEdges())
	}
}

func TestVariantString(t *testing.T) {
	if VariantAuto.String() != "Auto" || VariantOptimized.String() != "Opt" ||
		VariantUnoptimized.String() != "Unopt" || Variant(9).String() == "" {
		t.Fatal("variant names wrong")
	}
	if ScheduleDataflow.String() != "Dataflow" || ScheduleAsync.String() != "Async" ||
		ScheduleSynchronous.String() != "Synchronous" || Schedule(9).String() == "" {
		t.Fatal("schedule names wrong")
	}
}

func TestSubsetSorted(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{nil, nil, true},
		{nil, []int32{1}, true},
		{[]int32{1}, nil, false},
		{[]int32{1, 3}, []int32{1, 2, 3}, true},
		{[]int32{1, 4}, []int32{1, 2, 3}, false},
		{[]int32{2}, []int32{1, 2, 3}, true},
		{[]int32{0}, []int32{1, 2, 3}, false},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, true},
	}
	for i, c := range cases {
		if got := subsetSorted(c.a, c.b); got != c.want {
			t.Fatalf("case %d: subsetSorted(%v,%v) = %v", i, c.a, c.b, got)
		}
	}
}

func TestSubsetSortedProperty(t *testing.T) {
	f := func(aRaw, bRaw []byte) bool {
		a := uniqueSorted(aRaw)
		b := uniqueSorted(bRaw)
		got := subsetSorted(a, b)
		want := true
		set := map[int32]bool{}
		for _, x := range b {
			set[x] = true
		}
		for _, x := range a {
			if !set[x] {
				want = false
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func uniqueSorted(raw []byte) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, r := range raw {
		seen[int32(r)] = true
	}
	for v := int32(0); v < 256; v++ {
		if seen[v] {
			out = append(out, v)
		}
	}
	return out
}
