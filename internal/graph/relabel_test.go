package graph_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"chordal/internal/analysis"
	"chordal/internal/biogen"
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

// relabelOracle is the map-then-sort relabel that the permuted
// transposition replaced: row perm[v] gets perm[w] for each neighbour w
// of v, in v's order, and each row is then sorted if g was sorted.
func relabelOracle(g *graph.Graph, perm []int32) *graph.Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[perm[v]+1] = int64(g.Degree(int32(v)))
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, len(g.Adj))
	for v := 0; v < n; v++ {
		dst := adj[offsets[perm[v]]:offsets[perm[v]+1]]
		for i, w := range g.Neighbors(int32(v)) {
			dst[i] = perm[w]
		}
		if g.Sorted {
			slices.Sort(dst)
		}
	}
	return &graph.Graph{Offsets: offsets, Adj: adj, Sorted: g.Sorted}
}

// sameCSR fails unless a and b have identical Offsets, Adj and Sorted.
func sameCSR(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) || got.Sorted != want.Sorted {
		t.Fatalf("%s: got offsets %v adj %v sorted %v, want offsets %v adj %v sorted %v",
			what, got.Offsets, got.Adj, got.Sorted, want.Offsets, want.Adj, want.Sorted)
	}
}

// randomGraph draws m random endpoint pairs over n vertices, so small m
// leaves isolated vertices; hub joins a random vertex to about half of
// the others.
func randomGraph(rng *rand.Rand, n, m int, hub bool) *graph.Graph {
	var us, vs []int32
	if n > 0 {
		for i := 0; i < m; i++ {
			us = append(us, int32(rng.Intn(n)))
			vs = append(vs, int32(rng.Intn(n)))
		}
		if hub {
			h := int32(rng.Intn(n))
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					us = append(us, h)
					vs = append(vs, int32(v))
				}
			}
		}
	}
	return graph.BuildFromEdges(n, us, vs, 0)
}

func randomPerm(rng *rand.Rand, n int) []int32 {
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	return perm
}

// TestRelabelMatchesOracle pins the permuted transposition to the
// map-then-sort relabel on sorted and unsorted inputs, from the empty
// graph up, with isolated vertices and hubs.
func TestRelabelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 2, 3, 7, 40, 300} {
		for _, m := range []int{0, n / 3, 3 * n} {
			for _, hub := range []bool{false, true} {
				g := randomGraph(rng, n, m, hub)
				for trial := 0; trial < 3; trial++ {
					perm := randomPerm(rng, n)
					sameCSR(t, "sorted", g.Relabel(perm), relabelOracle(g, perm))
					sh := graph.ShuffleAdjacency(g, uint64(trial))
					sameCSR(t, "shuffled", sh.Relabel(perm), relabelOracle(sh, perm))
				}
			}
		}
	}
}

// TestSortAdjacencyUndoesShuffle checks that the identity-permutation
// transposition restores the canonical sorted CSR exactly.
func TestSortAdjacencyUndoesShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 9, 200} {
		for _, hub := range []bool{false, true} {
			g := randomGraph(rng, n, 2*n, hub)
			sameCSR(t, "SortAdjacency(ShuffleAdjacency(g))", graph.ShuffleAdjacency(g, uint64(n)).SortAdjacency(), g)
		}
	}
}

// relabelCase is one relabel benchmark input: a graph and a permutation.
type relabelCase struct {
	name string
	g    *graph.Graph
	perm []int32
}

func bioGraph(b *testing.B) *graph.Graph {
	g, err := biogen.Generate(biogen.PresetParams(biogen.GSE5140CRT, 8, 42))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

var sinkGraph *graph.Graph

// BenchmarkRelabel runs the transposition and the map-then-sort oracle
// on the service's bio network under a random id scatter (what biogen
// applies) and on the kernel workload's small world under degree order.
func BenchmarkRelabel(b *testing.B) {
	bio := bioGraph(b)
	ws := must(synth.WattsStrogatz(100000, 8, 0.1, 501))
	for _, c := range []relabelCase{
		{"gse5140-crt:8-random", bio, randomPerm(rand.New(rand.NewSource(1)), bio.NumVertices())},
		{"ws:100000:8:0.1:501-degree", ws, analysis.DegreeOrder(ws)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.Run("transpose", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkGraph = c.g.Relabel(c.perm)
				}
			})
			b.Run("oracle", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkGraph = relabelOracle(c.g, c.perm)
				}
			})
		})
	}
}

// binaryCase is one binary codec benchmark input.
type binaryCase struct {
	name string
	g    *graph.Graph
}

// binaryCases are a bio network near the size of the service's result
// fetches and a 13.6 MB G(n,m) graph.
func binaryCases(b *testing.B) []binaryCase {
	return []binaryCase{
		{"gse5140-crt:8", bioGraph(b)},
		{"gnm:200000:1500000:7", must(synth.GNM(200000, 1500000, 7))},
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	for _, c := range binaryCases(b) {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := graph.WriteBinary(&buf, c.g); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

func BenchmarkReadBinary(b *testing.B) {
	for _, c := range binaryCases(b) {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := graph.WriteBinary(&buf, c.g); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkGraph, err = graph.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
