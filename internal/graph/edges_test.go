package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chordal/internal/graph"
)

// edgesOf lists g's edges with U < V in Graph.Edges order.
func edgesOf(g *graph.Graph) []graph.Edge {
	var es []graph.Edge
	g.Edges(func(u, v int32) { es = append(es, graph.Edge{U: u, V: v}) })
	return es
}

// TestSortEdgesMatchesComparator checks the counting sort against a
// comparator sort by (U, V) on shuffled, distinct, oriented edge sets:
// empty, on one vertex, one hub owning every edge as the smaller and
// as the larger endpoint, n much larger than E, and random graphs.
func TestSortEdgesMatchesComparator(t *testing.T) {
	star := func(n int, hub int32) []graph.Edge {
		var es []graph.Edge
		for v := int32(0); int(v) < n; v++ {
			if v != hub {
				es = append(es, graph.Edge{U: min(v, hub), V: max(v, hub)})
			}
		}
		return es
	}
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"empty", 0, nil},
		{"one vertex", 1, nil},
		{"one edge", 2, []graph.Edge{{U: 0, V: 1}}},
		{"hub smallest", 500, star(500, 0)},
		{"hub largest", 500, star(500, 499)},
		{"hub middle", 500, star(500, 250)},
		{"sparse in a large range", 100000, []graph.Edge{{U: 99998, V: 99999}, {U: 3, V: 70000}, {U: 0, V: 99999}, {U: 3, V: 4}, {U: 50000, V: 50001}}},
		{"random", 300, edgesOf(randomGraph(rng, 300, 1500, false))},
		{"dense", 60, edgesOf(randomGraph(rng, 60, 1500, false))},
	}
	for _, c := range cases {
		got := make([]graph.Edge, len(c.edges))
		for i, j := range rng.Perm(len(c.edges)) {
			got[i] = c.edges[j]
		}
		want := slices.Clone(got)
		slices.SortFunc(want, func(a, b graph.Edge) int {
			if a.U != b.U {
				return int(a.U) - int(b.U)
			}
			return int(a.V) - int(b.V)
		})
		graph.SortEdges(c.n, got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: SortEdges differs from the comparator sort", c.name)
		}
	}
}

// TestFromSortedEdges checks the sort-free CSR of a canonical edge list
// against the general endpoint-pair build, from the empty graph up,
// with isolated vertices and hubs.
func TestFromSortedEdges(t *testing.T) {
	g := graph.FromSortedEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if g.NumVertices() != 5 || g.NumEdges() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(3, 2) {
		t.Fatalf("got V=%d E=%d adj %v", g.NumVertices(), g.NumEdges(), g.Adj)
	}
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 2, 7, 40, 300} {
		for _, hub := range []bool{false, true} {
			want := randomGraph(rng, n, 2*n, hub)
			sameCSR(t, fmt.Sprintf("n=%d hub=%t", n, hub), graph.FromSortedEdges(n, edgesOf(want)), want)
		}
	}
}

// TestRange pins the range slicer: Range(lo, hi) of a graph, sorted or
// shuffled, equals BuildFromEdges of the edges with both endpoints in
// [lo, hi), shifted by −lo. It covers the whole range, empty ranges at
// either end and inside, one-vertex ranges and random interior ranges.
func TestRange(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int32{0, 1, 2, 7, 60, 300} {
		for _, hub := range []bool{false, true} {
			sorted := randomGraph(rng, int(n), 3*int(n), hub)
			ranges := [][2]int32{{0, n}, {0, 0}, {n, n}, {n / 2, n / 2}}
			if n > 0 {
				ranges = append(ranges, [2]int32{0, 1}, [2]int32{n - 1, n}, [2]int32{n / 2, n/2 + 1})
			}
			for k := 0; k < 4 && n > 1; k++ {
				lo := rng.Int31n(n)
				ranges = append(ranges, [2]int32{lo, lo + 1 + rng.Int31n(n-lo)})
			}
			for _, g := range []*graph.Graph{sorted, graph.ShuffleAdjacency(sorted, 9)} {
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					var us, vs []int32
					sorted.Edges(func(u, v int32) {
						if u >= lo && v < hi {
							us, vs = append(us, u-lo), append(vs, v-lo)
						}
					})
					what := fmt.Sprintf("n=%d hub=%t sorted=%t [%d, %d)", n, hub, g.Sorted, lo, hi)
					sameCSR(t, what, g.Range(lo, hi), graph.BuildFromEdges(int(hi-lo), us, vs, 0))
				}
			}
		}
	}
}
