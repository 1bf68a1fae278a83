package chordalalg

import (
	"fmt"
	"slices"
	"testing"

	"chordal/internal/core"
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

// randomChordal extracts a chordal subgraph from a random graph; the
// result is a realistic chordal test instance.
func randomChordal(n, m int, seed uint64) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	res, err := core.Extract(b.Build(), core.Options{})
	if err != nil {
		panic(err)
	}
	return res.ToGraph()
}

func TestPEORejectsNonChordal(t *testing.T) {
	c4 := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if _, err := PEO(c4); err == nil {
		t.Fatal("C4 accepted")
	}
	if _, err := MaxClique(c4); err == nil {
		t.Fatal("MaxClique accepted C4")
	}
	if _, _, err := Coloring(c4); err == nil {
		t.Fatal("Coloring accepted C4")
	}
	if _, err := Decompose(c4); err == nil {
		t.Fatal("Decompose accepted C4")
	}
}

func TestMaxCliqueKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K6", complete(6), 6},
		{"path", path(7), 2},
		{"triangle-plus-tail", buildGraph(5, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}), 3},
		{"edgeless", graph.NewBuilder(3).Build(), 1},
	}
	for _, c := range cases {
		clique, err := MaxClique(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(clique) != c.want {
			t.Fatalf("%s: clique size %d, want %d", c.name, len(clique), c.want)
		}
		// The returned set really is a clique.
		for i := 0; i < len(clique); i++ {
			for j := i + 1; j < len(clique); j++ {
				if !c.g.HasEdge(clique[i], clique[j]) {
					t.Fatalf("%s: returned set not a clique", c.name)
				}
			}
		}
	}
}

func TestColoringProperAndOptimal(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randomChordal(120, 700, seed)
		colors, k, err := Coloring(g)
		if err != nil {
			t.Fatal(err)
		}
		// Proper coloring.
		g.Edges(func(u, v int32) {
			if colors[u] == colors[v] {
				t.Fatalf("edge {%d,%d} monochromatic", u, v)
			}
		})
		// Optimal: chromatic number equals clique number on chordal
		// graphs.
		clique, err := MaxClique(g)
		if err != nil {
			t.Fatal(err)
		}
		if k != len(clique) {
			t.Fatalf("seed %d: colors %d != clique %d", seed, k, len(clique))
		}
	}
}

// FuzzCliqueTree checks Decompose and MaxClique against subset
// enumeration on random chordal graphs of 14 vertices: the bags are
// exactly the maximal cliques and form a clique tree, MaxClique returns
// a largest one, and the width is its size minus one, which is also
// the width verify.PEO reports.
func FuzzCliqueTree(f *testing.F) {
	for seed := uint64(1); seed <= 40; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mRaw uint16) {
		g := randomChordal(14, 2+int(mRaw%80), seed)
		td, err := Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		checkCliqueTree(t, g, td)
		got := make([]uint32, len(td.Bags))
		for i, bag := range td.Bags {
			for _, v := range bag {
				got[i] |= 1 << v
			}
		}
		slices.Sort(got)
		if want := bruteForceMaximalCliques(g); !slices.Equal(got, want) {
			t.Fatalf("bags %v, maximal cliques (bitmasks) %b", td.Bags, want)
		}
		clique, err := MaxClique(g)
		if err != nil || !isCliqueIn(g, clique) {
			t.Fatalf("MaxClique = %v, %v", clique, err)
		}
		_, width, _ := verify.PEO(g)
		if td.Width != len(clique)-1 || td.Width != width {
			t.Fatalf("width %d, max clique %v, verify.PEO width %d", td.Width, clique, width)
		}
	})
}

// bruteForceMaximalCliques returns the maximal cliques of g (at most 32
// vertices) as ascending vertex bitmasks, by enumerating every vertex
// subset.
func bruteForceMaximalCliques(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	adj := make([]uint32, n)
	for v := range adj {
		for _, w := range g.Neighbors(int32(v)) {
			adj[v] |= 1 << w
		}
	}
	var out []uint32
	for mask := uint32(1); mask < 1<<n; mask++ {
		clique, extendable := true, false
		for v := 0; v < n; v++ {
			if bit := uint32(1) << v; mask&bit != 0 {
				clique = clique && mask&^bit&^adj[v] == 0
			} else if mask&^adj[v] == 0 {
				extendable = true
			}
		}
		if clique && !extendable {
			out = append(out, mask)
		}
	}
	return out
}

// checkCliqueTree requires td to be a clique tree of the chordal graph
// g: every bag is a maximal clique and no two bags are equal, every
// edge lies in a bag, the bags that hold any one vertex form one
// subtree, each parent is numbered below its child, and the width is
// the largest bag's size minus one and TreewidthFromPEO's.
func checkCliqueTree(t *testing.T, g *graph.Graph, td *TreeDecomposition) {
	t.Helper()
	if len(td.Parent) != len(td.Bags) {
		t.Fatalf("%d parents for %d bags", len(td.Parent), len(td.Bags))
	}
	holds := make([]map[int32]bool, len(td.Bags))
	seen := make(map[string]bool, len(td.Bags))
	maxBag := 0
	for i, bag := range td.Bags {
		if !isMaximalCliqueIn(g, bag) {
			t.Fatalf("bag %d = %v is not a maximal clique", i, bag)
		}
		sorted := slices.Clone(bag)
		slices.Sort(sorted)
		key := fmt.Sprint(sorted)
		if seen[key] {
			t.Fatalf("bag %d = %v repeats an earlier bag", i, bag)
		}
		seen[key] = true
		if p := td.Parent[i]; p < -1 || int(p) >= i {
			t.Fatalf("bag %d has parent %d, want -1 or below %d", i, p, i)
		}
		holds[i] = make(map[int32]bool, len(bag))
		for _, v := range bag {
			holds[i][v] = true
		}
		maxBag = max(maxBag, len(bag))
	}
	// The bags holding v form one subtree exactly when one of them has
	// no parent that holds v.
	tops := make([]int, g.NumVertices())
	for i, bag := range td.Bags {
		for _, v := range bag {
			if p := td.Parent[i]; p < 0 || !holds[p][v] {
				tops[v]++
			}
		}
	}
	for v, k := range tops {
		if k != 1 {
			t.Fatalf("the bags holding vertex %d form %d subtrees, want 1", v, k)
		}
	}
	g.Edges(func(u, v int32) {
		for i := range td.Bags {
			if holds[i][u] && holds[i][v] {
				return
			}
		}
		t.Fatalf("edge {%d,%d} lies in no bag", u, v)
	})
	order, err := PEO(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := TreewidthFromPEO(g, order); td.Width != want || td.Width != maxBag-1 {
		t.Fatalf("width %d, TreewidthFromPEO %d, largest bag %d", td.Width, want, maxBag)
	}
}

func TestDecomposeValidity(t *testing.T) {
	for _, seed := range []uint64{4, 5} {
		g := randomChordal(80, 500, seed)
		td, err := Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		checkCliqueTree(t, g, td)
		if clique, _ := MaxClique(g); td.Width != len(clique)-1 {
			t.Fatalf("treewidth %d != clique-1 %d", td.Width, len(clique)-1)
		}
	}
}

// TestMaximalCliquesCoverAndAreCliques requires Decompose's bags, the
// maximal cliques, to be cliques that cover every edge, at most one per
// vertex, with the largest as large as MaxClique's.
func TestMaximalCliquesCoverAndAreCliques(t *testing.T) {
	g := randomChordal(60, 400, 6)
	td, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	cliques := td.Bags
	if len(cliques) == 0 || len(cliques) > g.NumVertices() {
		t.Fatalf("%d maximal cliques for %d vertices", len(cliques), g.NumVertices())
	}
	// Each is a clique; the largest matches MaxClique.
	best := 0
	for _, c := range cliques {
		if !isCliqueIn(g, c) {
			t.Fatal("reported clique is not a clique")
		}
		best = max(best, len(c))
	}
	mc, _ := MaxClique(g)
	if best != len(mc) {
		t.Fatalf("largest maximal clique %d, MaxClique %d", best, len(mc))
	}
	// Every edge lies in some maximal clique.
	g.Edges(func(u, v int32) {
		for _, c := range cliques {
			if slices.Contains(c, u) && slices.Contains(c, v) {
				return
			}
		}
		t.Fatalf("edge {%d,%d} in no maximal clique", u, v)
	})
}

func TestMaximalCliquesK4(t *testing.T) {
	td, err := Decompose(complete(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Bags) != 1 || len(td.Bags[0]) != 4 || td.Parent[0] != -1 {
		t.Fatalf("K4 clique tree: bags %v, parents %v", td.Bags, td.Parent)
	}
	c := slices.Clone(td.Bags[0])
	slices.Sort(c)
	if !slices.Equal(c, []int32{0, 1, 2, 3}) {
		t.Fatalf("K4 clique %v", c)
	}
}

func TestPEOOfExtractedSubgraphs(t *testing.T) {
	// End-to-end: extract from a random graph, then the PEO pipeline
	// must succeed on the result (this is the paper's motivating
	// application path).
	g := randomChordal(200, 1500, 7)
	order, err := PEO(g)
	if err != nil {
		t.Fatal(err)
	}
	if !verify.IsPEO(g, order) {
		t.Fatal("returned order is not a PEO")
	}
}
