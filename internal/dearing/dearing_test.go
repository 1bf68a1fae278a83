package dearing

import (
	"testing"
	"testing/quick"

	"chordal/internal/graph"
	"chordal/internal/verify"
	"chordal/internal/xrand"
)

func buildGraph(n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func randomGraph(n, m int, seed uint64) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	r := Extract(graph.NewBuilder(0).Build(), 0)
	if r.NumChordalEdges() != 0 || len(r.Order) != 0 {
		t.Fatal("empty graph mishandled")
	}
}

func TestSingleVertex(t *testing.T) {
	r := Extract(graph.NewBuilder(1).Build(), 0)
	if len(r.Order) != 1 {
		t.Fatalf("order %v", r.Order)
	}
}

func TestTriangle(t *testing.T) {
	g := buildGraph(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	r := Extract(g, 0)
	if r.NumChordalEdges() != 3 {
		t.Fatalf("triangle kept %d edges", r.NumChordalEdges())
	}
}

func TestC4KeepsThree(t *testing.T) {
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	r := Extract(g, 0)
	if r.NumChordalEdges() != 3 {
		t.Fatalf("C4 kept %d edges, want 3", r.NumChordalEdges())
	}
}

func TestStarAnyCenter(t *testing.T) {
	// Unlike the id-order parallel algorithm, Dearing's greedy keeps
	// every star edge regardless of the center's id.
	for _, center := range []int32{0, 2, 4} {
		b := graph.NewBuilder(5)
		for i := int32(0); i < 5; i++ {
			if i != center {
				b.AddEdge(center, i)
			}
		}
		r := Extract(b.Build(), 0)
		if r.NumChordalEdges() != 4 {
			t.Fatalf("center %d: kept %d of 4 star edges", center, r.NumChordalEdges())
		}
	}
}

func TestCompleteGraphKept(t *testing.T) {
	b := graph.NewBuilder(12)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	g := b.Build()
	r := Extract(g, 0)
	if int64(r.NumChordalEdges()) != g.NumEdges() {
		t.Fatalf("K12 kept %d of %d", r.NumChordalEdges(), g.NumEdges())
	}
}

func TestOrderSelectsEveryVertexOnce(t *testing.T) {
	g := randomGraph(100, 300, 1)
	r := Extract(g, 0)
	if len(r.Order) != 100 {
		t.Fatalf("order length %d", len(r.Order))
	}
	seen := make([]bool, 100)
	for _, v := range r.Order {
		if seen[v] {
			t.Fatalf("vertex %d selected twice", v)
		}
		seen[v] = true
	}
}

func TestChordalAndMaximalProperty(t *testing.T) {
	// The serial baseline guarantees both chordality and maximality on
	// every input.
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 3 + int(nRaw%80)
		m := int(mRaw % 800)
		g := randomGraph(n, m, seed)
		r := Extract(g, 0)
		sub := graph.FromSortedEdges(n, r.Edges)
		if !verify.IsChordal(sub) {
			return false
		}
		return len(verify.AuditMaximality(g, sub, 1)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStartVertexHonored(t *testing.T) {
	g := randomGraph(50, 150, 2)
	r := Extract(g, 17)
	if r.Order[0] != 17 {
		t.Fatalf("start vertex %d, want 17", r.Order[0])
	}
	// Out-of-range start falls back to 0.
	r = Extract(g, -5)
	if r.Order[0] != 0 {
		t.Fatalf("fallback start %d", r.Order[0])
	}
	r = Extract(g, 1000)
	if r.Order[0] != 0 {
		t.Fatalf("fallback start %d", r.Order[0])
	}
}

func TestDisconnectedComponentsAllSelected(t *testing.T) {
	g := buildGraph(6, [][2]int32{{0, 1}, {3, 4}})
	r := Extract(g, 0)
	if len(r.Order) != 6 {
		t.Fatalf("order covers %d of 6 vertices", len(r.Order))
	}
	if r.NumChordalEdges() != 2 {
		t.Fatalf("kept %d of 2 edges", r.NumChordalEdges())
	}
}

func TestEdgesSortedAndReal(t *testing.T) {
	g := randomGraph(80, 400, 3)
	r := Extract(g, 0)
	for i, e := range r.Edges {
		if e.U >= e.V {
			t.Fatalf("edge %v not oriented", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v not in input", e)
		}
		if i > 0 {
			p := r.Edges[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("edges unsorted at %d", i)
			}
		}
	}
}

func TestSelectionOrderIsReversePEO(t *testing.T) {
	// The selection order reversed is a perfect elimination ordering of
	// the extracted subgraph: each vertex's candidate clique comes
	// earlier.
	g := randomGraph(60, 240, 4)
	r := Extract(g, 0)
	sub := graph.FromSortedEdges(60, r.Edges)
	rev := make([]int32, len(r.Order))
	for i, v := range r.Order {
		rev[len(r.Order)-1-i] = v
	}
	if !verify.IsPEO(sub, rev) {
		t.Fatal("reversed selection order is not a PEO of the output")
	}
}

func TestInsertSorted(t *testing.T) {
	s := []int32{}
	for _, x := range []int32{5, 1, 3, 2, 4} {
		s = insertSorted(s, x)
	}
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("not sorted: %v", s)
		}
	}
	if len(s) != 5 {
		t.Fatalf("length %d", len(s))
	}
}
