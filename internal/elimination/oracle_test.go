package elimination

import (
	"fmt"
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
	"chordal/internal/xrand"
)

// gameFill is the reference Fill: it plays the elimination game on
// adjacency sets, connecting each eliminated vertex's later neighbors
// pairwise and counting the edges it adds. Its cost grows with the
// fill (Θ(V³) on a bad ordering), so it is for small test inputs only.
// order must be a permutation.
func gameFill(g *graph.Graph, order []int32) int64 {
	n := g.NumVertices()
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	adj := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[int32]bool, g.Degree(int32(v)))
		for _, w := range g.Neighbors(int32(v)) {
			adj[v][w] = true
		}
	}
	var fill int64
	for _, v := range order {
		var later []int32
		for w := range adj[v] {
			if pos[w] > pos[v] {
				later = append(later, w)
			}
		}
		for i := 0; i < len(later); i++ {
			for j := i + 1; j < len(later); j++ {
				a, b := later[i], later[j]
				if !adj[a][b] {
					adj[a][b] = true
					adj[b][a] = true
					fill++
				}
			}
		}
	}
	return fill
}

// oracleZoo is one small graph per generator family, sized so the
// elimination game stays fast even under a natural or random order.
func oracleZoo(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rm, err := rmat.Generate(rmat.PresetParams(rmat.B, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	bio, err := biogen.Generate(biogen.PresetParams(biogen.GSE5140CRT, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	noised, _, err := synth.KTreePlusNoise(150, 3, 80, 9)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"gnm":         must(synth.GNM(200, 800, 3)),
		"ws":          must(synth.WattsStrogatz(200, 6, 0.1, 9)),
		"geo":         must(synth.RandomGeometric(200, synth.GeometricRadiusForDegree(200, 8), 11)),
		"ktree":       must(synth.KTree(150, 4, 13)),
		"ktree-noise": noised,
		"rmat-b":      rm,
		"bio":         bio,
	}
}

func TestFillMatchesGameOracle(t *testing.T) {
	for name, g := range oracleZoo(t) {
		n := g.NumVertices()
		orders := map[string][]int32{
			"natural":   NaturalOrder(n),
			"mcs":       verify.MCSOrder(g),
			"mindegree": minDegree(g),
		}
		for seed := uint64(1); seed <= 3; seed++ {
			orders[fmt.Sprintf("random%d", seed)] = xrand.NewXoshiro256(seed).Perm(n)
		}
		for oname, order := range orders {
			t.Run(name+"/"+oname, func(t *testing.T) {
				got, err := Fill(g, order)
				if err != nil {
					t.Fatal(err)
				}
				if want := gameFill(g, order); got != want {
					t.Fatalf("Fill = %d, elimination game = %d", got, want)
				}
			})
		}
	}
}

func TestFillEdgeCases(t *testing.T) {
	complete := graph.NewBuilder(7)
	for u := int32(0); u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			complete.AddEdge(u, v)
		}
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		order []int32
		want  int64
	}{
		{"empty", buildGraph(0, nil), nil, 0},
		{"single", buildGraph(1, nil), []int32{0}, 0},
		{"isolated", buildGraph(5, [][2]int32{{1, 3}}), []int32{4, 3, 2, 1, 0}, 0},
		// Two stars whose centers go first: C(3,2) + C(2,2) fill edges.
		{"forest", buildGraph(9, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {7, 8}}),
			[]int32{0, 4, 7, 8, 1, 2, 3, 5, 6}, 4},
		{"complete", complete.Build(), []int32{3, 6, 0, 5, 1, 4, 2}, 0},
		// TestFillKnown covers C4 in natural order; this one interleaves.
		{"C4", buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}), []int32{1, 3, 0, 2}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Fill(tc.g, tc.order)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Fill = %d, want %d", got, tc.want)
			}
			if oracle := gameFill(tc.g, tc.order); got != oracle {
				t.Fatalf("Fill = %d, elimination game = %d", got, oracle)
			}
		})
	}
}

func TestFillCountsPastInt32(t *testing.T) {
	// Eliminating a star's center first makes its leaves a clique:
	// C(n-1, 2) fill edges, more than an int32 holds at this size.
	const n = 70000
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v)
	}
	fill, err := Fill(b.Build(), NaturalOrder(n))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2449895001); fill != want {
		t.Fatalf("star center-first fill %d, want C(%d,2) = %d", fill, n-1, want)
	}
}
