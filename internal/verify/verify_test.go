package verify

import (
	"context"
	"errors"
	"slices"
	"testing"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/synth"
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

func buildGraph(n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestIsChordalKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"empty", graph.NewBuilder(0).Build(), true},
		{"edgeless", graph.NewBuilder(5).Build(), true},
		{"single-edge", path(2), true},
		{"path-10", path(10), true},
		{"triangle", cycle(3), true},
		{"C4", cycle(4), false},
		{"C5", cycle(5), false},
		{"C6", cycle(6), false},
		{"K4", complete(4), true},
		{"K7", complete(7), true},
		{"C4-with-chord", buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}), true},
		{"C5-one-chord", buildGraph(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}), false},
		{"C5-two-chords", buildGraph(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {0, 3}}), true},
		// K3,3 contains C4s.
		{"K33", buildGraph(6, [][2]int32{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}}), false},
		// Two disjoint triangles: chordality is per-component.
		{"two-triangles", buildGraph(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}), true},
		// Triangle plus separate C4.
		{"triangle+C4", buildGraph(7, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 3}}), false},
	}
	for _, c := range cases {
		if got := IsChordal(c.g); got != c.want {
			t.Errorf("%s: IsChordal = %v, want %v", c.name, got, c.want)
		}
		// PEO returns the MCS order with the same verdict.
		order, _, ok := PEO(c.g)
		if ok != c.want || !slices.Equal(order, MCSOrder(c.g)) {
			t.Errorf("%s: PEO = %v, %t; want MCSOrder %v, %t", c.name, order, ok, MCSOrder(c.g), c.want)
		}
	}
}

func TestMCSOrderIsPermutation(t *testing.T) {
	g := complete(10)
	order := MCSOrder(g)
	if len(order) != 10 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 10)
	for _, v := range order {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid order %v", order)
		}
		seen[v] = true
	}
}

func TestIsPEORejectsWrongLength(t *testing.T) {
	if IsPEO(path(4), []int32{0, 1}) {
		t.Fatal("short order accepted")
	}
	// An order must be a permutation: C4 is not chordal, so no order
	// of it can pass, and an out-of-range id must not panic.
	c4 := cycle(4)
	for _, order := range [][]int32{
		{0, 0, 0, 0},
		{0, 1, 2, 2},
		{0, 1, 2, 4},
		{-1, 0, 1, 2},
		{0, 1, 2, 3, 0},
	} {
		if IsPEO(c4, order) {
			t.Errorf("IsPEO(C4, %v) accepted a non-permutation", order)
		}
		if IsPEOAdj(AdjFromGraph(c4), order) {
			t.Errorf("IsPEOAdj(C4, %v) accepted a non-permutation", order)
		}
	}
	// The same holds on a chordal graph, where any valid order passes.
	if !IsPEO(path(4), []int32{0, 1, 2, 3}) || IsPEO(path(4), []int32{0, 1, 1, 3}) {
		t.Fatal("path-4: a repeated id changed the verdict of a valid order")
	}
}

func TestIsPEOKnownOrders(t *testing.T) {
	// For the chord-split C4 {0-1-2-3-0, 0-2}: the order [1,3,0,2] is
	// a PEO (1 and 3 are simplicial); [0,1,2,3] is not, since 0's later
	// neighbors {1,2,3}... 0's neighbors are 1,2,3: 1-2 edge exists,
	// 1-3 does not -> not a PEO.
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if !IsPEO(g, []int32{1, 3, 0, 2}) {
		t.Fatal("valid PEO rejected")
	}
	if IsPEO(g, []int32{0, 1, 2, 3}) {
		t.Fatal("invalid PEO accepted")
	}
}

func TestAdjFromGraph(t *testing.T) {
	g := complete(4)
	adj := AdjFromGraph(g)
	if len(adj) != 4 {
		t.Fatalf("adj size %d", len(adj))
	}
	for v := range adj {
		if len(adj[v]) != 3 {
			t.Fatalf("vertex %d degree %d", v, len(adj[v]))
		}
	}
	// Mutating the copy must not affect the graph.
	adj[0] = append(adj[0], 0)
	if g.Degree(0) != 3 {
		t.Fatal("AdjFromGraph aliases graph storage")
	}
}

func TestAuditMaximality(t *testing.T) {
	// Take C4: the extracted chordal subgraph 0-1-2-3 (path) is
	// maximal, so the audit of a FULL path against C4 finds nothing;
	// but a 2-edge subgraph has addable edges.
	g := cycle(4)
	full := path(4)
	if v := AuditMaximality(g, full, 0); len(v) != 0 {
		t.Fatalf("maximal subgraph audited %d violations", len(v))
	}
	sub := buildGraph(4, [][2]int32{{0, 1}, {1, 2}})
	v := AuditMaximality(g, sub, 0)
	if len(v) == 0 {
		t.Fatal("non-maximal subgraph audited clean")
	}
	// Limit respected.
	if v := AuditMaximality(g, buildGraph(4, nil), 2); len(v) != 2 {
		t.Fatalf("limit ignored: %d", len(v))
	}
}

// TestAuditMaximalityFromPEOCancel pins the audit's cancellation: a
// canceled context stops an audit that has candidates to test, and an
// audit of an output that keeps every input edge tests nothing, so it
// neither looks at ctx nor needs an order.
func TestAuditMaximalityFromPEOCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, sub := cycle(4), path(4)
	peo, _, ok := PEO(sub)
	if !ok {
		t.Fatal("path-4 is not chordal")
	}
	if out, err := AuditMaximalityFromPEO(ctx, g, sub, peo, 0); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("canceled audit = %v, %v; want nil, context.Canceled", out, err)
	}
	if out, err := AuditMaximalityFromPEO(ctx, sub, sub, nil, 0); err != nil || out != nil {
		t.Fatalf("audit without candidates = %v, %v; want nil, nil", out, err)
	}
	if out, err := AuditMaximalityFromPEO(context.Background(), g, sub, peo, 0); err != nil || len(out) != 0 {
		t.Fatalf("maximal path-in-C4 audited %v, %v", out, err)
	}
}

func TestIsMaximalChordal(t *testing.T) {
	g := cycle(4)
	if !IsMaximalChordal(g, path(4)) {
		t.Fatal("path-in-C4 should be maximal chordal")
	}
	if IsMaximalChordal(g, buildGraph(4, [][2]int32{{0, 1}})) {
		t.Fatal("single edge in C4 is not maximal")
	}
	if IsMaximalChordal(g, g) {
		t.Fatal("C4 itself is not chordal")
	}
	// A sub on another vertex count is no subgraph of g's vertex set.
	for _, sub := range []*graph.Graph{path(3), path(5), buildGraph(0, nil)} {
		if IsMaximalChordal(g, sub) {
			t.Fatalf("%d-vertex sub of a 4-vertex g reported maximal", sub.NumVertices())
		}
	}
}

func TestMCSOnAdjAgreesWithGraph(t *testing.T) {
	g := complete(8)
	a := MCSOrder(g)
	b := MCSOrderAdj(AdjFromGraph(g))
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	// Both must be PEOs of K8 (any order is).
	if !IsPEO(g, a) || !IsPEOAdj(AdjFromGraph(g), b) {
		t.Fatal("MCS order not a PEO of K8")
	}
}

// BenchmarkPEOSmallWorld certifies the one-worker parallel extraction
// of the ring-lattice small world ws:20000:8:0.1:42: the MCS order and
// the follower test the verify stage runs once per run.
func BenchmarkPEOSmallWorld(b *testing.B) {
	res, err := core.Extract(must(synth.WattsStrogatz(20000, 8, 0.1, 42, 1)), core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sub := res.ToGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := PEO(sub); !ok {
			b.Fatal("extracted subgraph is not chordal")
		}
	}
}
