package graph

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// completeGraph returns K_n.
func completeGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	for v := int32(0); v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // reverse orientation duplicate
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop: dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop survived: degree(2) = %d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := pathGraph(5)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("missing path edge")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	// Unsorted variant uses the scan path.
	sh := ShuffleAdjacency(g, 1)
	if !sh.HasEdge(1, 2) || sh.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong on shuffled graph")
	}
}

func TestSortAdjacency(t *testing.T) {
	g := pathGraph(100)
	sh := ShuffleAdjacency(g, 99)
	if sh.Sorted {
		t.Fatal("shuffled graph claims sorted")
	}
	re := sh.SortAdjacency()
	if !re.Sorted {
		t.Fatal("SortAdjacency did not mark sorted")
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sorting a sorted graph returns it unchanged.
	if g.SortAdjacency() != g {
		t.Fatal("sorting a sorted graph copied it")
	}
}

func TestEdgesIteratesOnce(t *testing.T) {
	g := completeGraph(7)
	count := 0
	g.Edges(func(u, v int32) {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		count++
	})
	if count != 21 {
		t.Fatalf("iterated %d edges, want 21", count)
	}
	us, vs := g.EdgeList()
	if len(us) != 21 || len(vs) != 21 {
		t.Fatalf("EdgeList lengths %d/%d", len(us), len(vs))
	}
	// EdgesWhile yields the same prefix and stops when fn says so.
	var got []int32
	g.EdgesWhile(func(u, v int32) bool {
		got = append(got, u, v)
		return len(got) < 2*8
	})
	if want := []int32{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 2, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("EdgesWhile yielded %v, want %v", got, want)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(6)
	sub, orig := g.InducedSubgraph([]int32{5, 1, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub vertices = %d", sub.NumVertices())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("sub edges = %d, want triangle", sub.NumEdges())
	}
	want := []int32{1, 3, 5}
	if !reflect.DeepEqual(orig, want) {
		t.Fatalf("orig mapping %v, want %v", orig, want)
	}
	// Induced subgraph of a path keeps only consecutive pairs.
	p := pathGraph(6)
	sub, _ = p.InducedSubgraph([]int32{0, 1, 2, 4})
	if sub.NumEdges() != 2 {
		t.Fatalf("path induced edges = %d, want 2", sub.NumEdges())
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := pathGraph(6)
	perm := []int32{5, 4, 3, 2, 1, 0} // reverse
	r := g.Relabel(perm)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), r.NumEdges())
	}
	// Edge {0,1} must become {5,4}.
	if !r.HasEdge(5, 4) {
		t.Fatal("relabeled edge missing")
	}
	if r.HasEdge(0, 2) {
		t.Fatal("phantom relabeled edge")
	}
	// Degrees follow the permutation.
	for v := 0; v < 6; v++ {
		if g.Degree(int32(v)) != r.Degree(perm[v]) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestRelabelPanicsOnBadPerm(t *testing.T) {
	for _, perm := range [][]int32{{0, 1}, {0, 1, 1}, {0, 1, 3}, {0, -1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("perm %v: expected panic", perm)
				}
			}()
			pathGraph(3).Relabel(perm)
		}()
	}
}

func TestSubgraphFromEdges(t *testing.T) {
	g := SubgraphFromEdges(5, []int32{0, 2}, []int32{1, 3})
	if g.NumVertices() != 5 || g.NumEdges() != 2 {
		t.Fatalf("got V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("edges missing")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := pathGraph(4)
	bad := &Graph{Offsets: g.Offsets, Adj: append([]int32(nil), g.Adj...), Sorted: g.Sorted}
	bad.Adj[0] = 99 // out of range
	if bad.Validate() == nil {
		t.Fatal("Validate accepted out-of-range neighbor")
	}
	bad.Adj[0] = 0 // self loop at vertex 0
	if bad.Validate() == nil {
		t.Fatal("Validate accepted self loop")
	}
}

func TestStats(t *testing.T) {
	g := completeGraph(5)
	s := ComputeStats(g)
	if s.Vertices != 5 || s.Edges != 10 {
		t.Fatalf("stats %+v", s)
	}
	if s.AvgDegree != 4 || s.MaxDegree != 4 {
		t.Fatalf("degree stats %+v", s)
	}
	if s.DegreeVariance != 0 {
		t.Fatalf("variance %v, want 0 for regular graph", s.DegreeVariance)
	}
	if s.EdgesByVertices != 2 {
		t.Fatalf("E/V = %v", s.EdgesByVertices)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	// Star graph: one hub of degree n-1.
	b := NewBuilder(5)
	for i := int32(1); i < 5; i++ {
		b.AddEdge(0, i)
	}
	star := b.Build()
	ss := ComputeStats(star)
	if ss.MaxDegree != 4 {
		t.Fatalf("star max degree %d", ss.MaxDegree)
	}
	if ss.DegreeVariance <= 0 {
		t.Fatalf("star variance %v", ss.DegreeVariance)
	}
	for v := int32(1); v < 5; v++ {
		if star.Degree(v) != 1 {
			t.Fatalf("star leaf %d has degree %d", v, star.Degree(v))
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph malformed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Vertices != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBuildFromEdgesProperty(t *testing.T) {
	// Building from arbitrary endpoint bytes always yields a valid
	// simple symmetric graph, and rebuilding its edge list is a fixed
	// point.
	f := func(raw []byte) bool {
		if len(raw)%2 == 1 {
			raw = raw[:len(raw)-1]
		}
		const n = 256
		us := make([]int32, 0, len(raw)/2)
		vs := make([]int32, 0, len(raw)/2)
		for i := 0; i < len(raw); i += 2 {
			us = append(us, int32(raw[i]))
			vs = append(vs, int32(raw[i+1]))
		}
		g := BuildFromEdges(n, us, vs)
		if g.Validate() != nil {
			return false
		}
		u2, v2 := g.EdgeList()
		g2 := BuildFromEdges(n, u2, v2)
		if g2.NumEdges() != g.NumEdges() {
			return false
		}
		u3, v3 := g2.EdgeList()
		return reflect.DeepEqual(u2, u3) && reflect.DeepEqual(v2, v3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleAdjacencyPreservesSets(t *testing.T) {
	g := completeGraph(20)
	sh := ShuffleAdjacency(g, 5)
	for v := int32(0); v < 20; v++ {
		a := append([]int32(nil), g.Neighbors(v)...)
		b := append([]int32(nil), sh.Neighbors(v)...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("vertex %d neighbor set changed", v)
		}
	}
	// Deterministic in seed.
	sh2 := ShuffleAdjacency(g, 5)
	if !reflect.DeepEqual(sh.Adj, sh2.Adj) {
		t.Fatal("shuffle not deterministic")
	}
	sh3 := ShuffleAdjacency(g, 6)
	if reflect.DeepEqual(sh.Adj, sh3.Adj) {
		t.Fatal("different seeds gave identical shuffle")
	}
}

func TestMaxDegree(t *testing.T) {
	if d := pathGraph(2).MaxDegree(); d != 1 {
		t.Fatalf("path MaxDegree = %d", d)
	}
	if d := NewBuilder(3).Build().MaxDegree(); d != 0 {
		t.Fatalf("edgeless MaxDegree = %d", d)
	}
}
