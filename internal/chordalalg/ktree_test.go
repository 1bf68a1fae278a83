package chordalalg

import (
	"testing"

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

// isCliqueIn reports whether every pair of vertices in c is adjacent in
// g.
func isCliqueIn(g *graph.Graph, c []int32) bool {
	for i := 0; i < len(c); i++ {
		for j := i + 1; j < len(c); j++ {
			if !g.HasEdge(c[i], c[j]) {
				return false
			}
		}
	}
	return true
}

// isMaximalCliqueIn reports whether c is a clique no outside vertex
// extends.
func isMaximalCliqueIn(g *graph.Graph, c []int32) bool {
	if !isCliqueIn(g, c) {
		return false
	}
	in := make(map[int32]bool, len(c))
	for _, v := range c {
		in[v] = true
	}
	// Any extender must be a neighbor of c[0]; count adjacencies into c.
	for _, w := range g.Neighbors(c[0]) {
		if in[w] {
			continue
		}
		adj := 0
		for _, v := range c {
			if g.HasEdge(w, v) {
				adj++
			}
		}
		if adj == len(c) {
			return false
		}
	}
	return true
}

// TestMaximalCliquesTable pins Decompose's bags, the maximal cliques,
// on fixtures with known clique structure: a k-tree on n vertices has exactly n-k maximal
// cliques, all of size k+1 (the seed clique plus one per attached
// vertex); a path on n vertices has n-1 maximal cliques (its edges);
// a complete graph has one. Every reported clique must be a genuinely
// maximal clique, and together they must cover every edge.
func TestMaximalCliquesTable(t *testing.T) {
	cases := []struct {
		name       string
		g          *graph.Graph
		wantCount  int
		wantSize   int // 0 = sizes vary; checked per clique otherwise
		wantChords bool
	}{
		{"path-6", path(6), 5, 2, false},
		{"complete-5", complete(5), 1, 5, false},
		{"ktree-50-3", must(synth.KTree(50, 3, 1)), 47, 4, false},
		{"ktree-200-4", must(synth.KTree(200, 4, 13)), 196, 5, false},
		{"ktree-120-8", must(synth.KTree(120, 8, 7)), 112, 9, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			td, err := Decompose(c.g)
			if err != nil {
				t.Fatal(err)
			}
			cliques := td.Bags
			if len(cliques) != c.wantCount {
				t.Fatalf("%d maximal cliques, want %d", len(cliques), c.wantCount)
			}
			covered := 0
			seen := make(map[[2]int32]bool)
			for _, cl := range cliques {
				if c.wantSize > 0 && len(cl) != c.wantSize {
					t.Fatalf("clique %v has size %d, want %d", cl, len(cl), c.wantSize)
				}
				if !isMaximalCliqueIn(c.g, cl) {
					t.Fatalf("reported clique %v is not a maximal clique", cl)
				}
				for i := 0; i < len(cl); i++ {
					for j := i + 1; j < len(cl); j++ {
						u, v := cl[i], cl[j]
						if u > v {
							u, v = v, u
						}
						if !seen[[2]int32{u, v}] {
							seen[[2]int32{u, v}] = true
							covered++
						}
					}
				}
			}
			if int64(covered) != c.g.NumEdges() {
				t.Errorf("cliques cover %d edges, graph has %d", covered, c.g.NumEdges())
			}
		})
	}
}

// TestDecomposeKTreeTable pins Decompose on k-trees, whose treewidth is
// exactly k by construction: the width must equal k, and the bags must
// form a clique tree (checkCliqueTree): maximal cliques that cover
// every edge, each vertex's bags one subtree, each parent numbered
// below its child.
func TestDecomposeKTreeTable(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"ktree-50-3", must(synth.KTree(50, 3, 1)), 3},
		{"ktree-200-4", must(synth.KTree(200, 4, 13)), 4},
		{"ktree-120-8", must(synth.KTree(120, 8, 7)), 8},
		{"path-10", path(10), 1},
		{"complete-6", complete(6), 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			td, err := Decompose(c.g)
			if err != nil {
				t.Fatal(err)
			}
			if td.Width != c.k {
				t.Fatalf("width %d, want %d", td.Width, c.k)
			}
			checkCliqueTree(t, c.g, td)
		})
	}
}
