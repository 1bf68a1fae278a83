package elimination

import (
	"slices"
	"testing"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/synth"
	"chordal/internal/xrand"
)

// referenceEtree is Liu's algorithm with path compression alone, the
// etree Fill used before its disjoint sets were united by size: each
// step climbs from every earlier neighbor to its current root and
// points the climbed path at itself. The elimination tree is unique for
// a graph and an order, so etree must return exactly its arrays.
func referenceEtree(g *graph.Graph, order, pos []int32) (parent []int32, start []int, later []int32) {
	n := len(order)
	parent = make([]int32, n)
	ancestor := make([]int32, n)
	start = make([]int, n+1)
	later = make([]int32, 0, g.NumEdges())
	for k, v := range order {
		step := int32(k)
		parent[k], ancestor[k] = -1, -1
		for _, w := range g.Neighbors(v) {
			i := pos[w]
			if i > step {
				later = append(later, i)
				continue
			}
			for i != -1 && i < step {
				next := ancestor[i]
				ancestor[i] = step
				if next == -1 {
					parent[i] = step
				}
				i = next
			}
		}
		start[k+1] = len(later)
	}
	return parent, start, later
}

// TestEtreeMatchesReference checks the union-by-size etree against
// referenceEtree on every zoo graph, plus a deep small world, under the
// MCS order of its extracted chordal subgraph (the order Fill sees in a
// run's quality stage), the natural order and a seeded random order.
func TestEtreeMatchesReference(t *testing.T) {
	zoo := oracleZoo(t)
	zoo["ws-20000"] = must(synth.WattsStrogatz(20000, 8, 0.1, 42, 1))
	for name, g := range zoo {
		n := g.NumVertices()
		mcs, err := ChordalGuidedOrder(g, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		orders := map[string][]int32{
			"mcs":     mcs,
			"natural": NaturalOrder(n),
			"random":  xrand.NewXoshiro256(17).Perm(n),
		}
		for oname, order := range orders {
			pos, err := positions(n, order)
			if err != nil {
				t.Fatal(err)
			}
			parent, start, later := etree(g, order, pos)
			wantParent, wantStart, wantLater := referenceEtree(g, order, pos)
			if !slices.Equal(parent, wantParent) || !slices.Equal(start, wantStart) || !slices.Equal(later, wantLater) {
				t.Errorf("%s/%s: etree differs from the path-compression reference", name, oname)
			}
		}
	}
}

// BenchmarkFillSmallWorld counts the fill of ws:100000:8:0.1:7, the
// input of a kernel-ws operation, under the MCS order of its one-worker
// extracted subgraph: the fill count of that operation's quality stage.
func BenchmarkFillSmallWorld(b *testing.B) {
	g := must(synth.WattsStrogatz(100000, 8, 0.1, 7, 1))
	order, err := ChordalGuidedOrder(g, core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill, err := Fill(g, order)
		if err != nil {
			b.Fatal(err)
		}
		if fill == 0 {
			b.Fatal("no fill on a non-chordal input")
		}
	}
}
