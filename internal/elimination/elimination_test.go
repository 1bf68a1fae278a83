package elimination

import (
	"context"
	"testing"
	"testing/quick"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/synth"
	"chordal/internal/verify"
	"chordal/internal/xrand"
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

// minDegree is MinDegreeOrder under a context that is never canceled,
// so it cannot fail.
func minDegree(g *graph.Graph) []int32 {
	order, err := MinDegreeOrder(context.Background(), g)
	if err != nil {
		panic(err)
	}
	return order
}

func buildGraph(n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestFillKnown(t *testing.T) {
	// Path 0-1-2-3 eliminated in natural order: no fill (each vertex
	// has one later neighbor).
	p4 := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	fill, err := Fill(p4, NaturalOrder(4))
	if err != nil || fill != 0 {
		t.Fatalf("path fill %d (%v)", fill, err)
	}
	// Star center first: eliminating the center clique-connects all
	// leaves: C(4,2) = 6 fill edges.
	star := buildGraph(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	fill, err = Fill(star, []int32{0, 1, 2, 3, 4})
	if err != nil || fill != 6 {
		t.Fatalf("star center-first fill %d (%v)", fill, err)
	}
	// Star leaves first: zero fill.
	fill, err = Fill(star, []int32{1, 2, 3, 4, 0})
	if err != nil || fill != 0 {
		t.Fatalf("star leaves-first fill %d (%v)", fill, err)
	}
	// C4 in natural order: eliminating 0 adds {1,3}: 1 fill, rest none.
	c4 := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	fill, err = Fill(c4, NaturalOrder(4))
	if err != nil || fill != 1 {
		t.Fatalf("C4 fill %d (%v)", fill, err)
	}
}

func TestFillRejectsBadOrders(t *testing.T) {
	g := buildGraph(3, [][2]int32{{0, 1}})
	if _, err := Fill(g, []int32{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := Fill(g, []int32{0, 1, 1}); err == nil {
		t.Fatal("repeat accepted")
	}
	if _, err := Fill(g, []int32{0, 1, 5}); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestPEOOfChordalGraphIsFillFree(t *testing.T) {
	// Fundamental theorem: an ordering has zero fill iff it is a PEO;
	// verify on k-trees with their construction-order PEO reversed.
	g := must(synth.KTree(60, 3, 5))
	peo := verify.MCSOrder(g)
	fill, err := Fill(g, peo)
	if err != nil {
		t.Fatal(err)
	}
	if fill != 0 {
		t.Fatalf("PEO of chordal graph produced %d fill", fill)
	}
}

func TestFillFreeImpliesChordalProperty(t *testing.T) {
	// Property: fill(MCS order) == 0 exactly when the graph is
	// chordal.
	f := func(seed uint64, mRaw uint16) bool {
		rng := xrand.NewXoshiro256(seed)
		n := 20
		b := graph.NewBuilder(n)
		for i := 0; i < int(mRaw%120); i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		fill, err := Fill(g, verify.MCSOrder(g))
		if err != nil {
			return false
		}
		return (fill == 0) == verify.IsChordal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMinDegreeOrderIsPermutation(t *testing.T) {
	g := must(synth.GNM(200, 800, 3))
	order := minDegree(g)
	if len(order) != 200 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 200)
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d repeated", v)
		}
		seen[v] = true
	}
}

func TestMinDegreeBeatsNatural(t *testing.T) {
	// On random sparse graphs minimum degree should (almost always)
	// produce less fill than the natural order.
	g := must(synth.GNM(150, 450, 7))
	natural, err := Fill(g, NaturalOrder(150))
	if err != nil {
		t.Fatal(err)
	}
	md, err := Fill(g, minDegree(g))
	if err != nil {
		t.Fatal(err)
	}
	if md > natural {
		t.Fatalf("min degree fill %d worse than natural %d", md, natural)
	}
}

func TestChordalGuidedOrderZeroFillOnChordal(t *testing.T) {
	// On an already chordal input, the extracted subgraph is the whole
	// graph and the guided order is fill-free.
	g := must(synth.KTree(80, 2, 11))
	order, err := ChordalGuidedOrder(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill, err := Fill(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if fill != 0 {
		t.Fatalf("guided order on chordal input gave %d fill", fill)
	}
}

func TestChordalSubgraphProperties(t *testing.T) {
	// On any input and any ordering the result must be a chordal
	// subgraph of the input that admits the ordering as a PEO (zero
	// fill), deterministically.
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		order []int32
	}{
		{"gnm-natural", must(synth.GNM(300, 1500, 5)), NaturalOrder(300)},
		{"gnm-mindeg", must(synth.GNM(300, 1500, 5)), minDegree(must(synth.GNM(300, 1500, 5)))},
		{"ws-mindeg", must(synth.WattsStrogatz(200, 6, 0.1, 9)), minDegree(must(synth.WattsStrogatz(200, 6, 0.1, 9)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, err := ChordalSubgraph(tc.g, tc.order)
			if err != nil {
				t.Fatal(err)
			}
			if !verify.IsChordal(sub) {
				t.Fatal("result is not chordal")
			}
			for v := 0; v < sub.NumVertices(); v++ {
				for _, w := range sub.Neighbors(int32(v)) {
					if !tc.g.HasEdge(int32(v), w) {
						t.Fatalf("edge {%d,%d} not in input", v, w)
					}
				}
			}
			fill, err := Fill(sub, tc.order)
			if err != nil {
				t.Fatal(err)
			}
			if fill != 0 {
				t.Fatalf("order is not a PEO of the result: fill %d", fill)
			}
			again, err := ChordalSubgraph(tc.g, tc.order)
			if err != nil {
				t.Fatal(err)
			}
			if sub.NumEdges() != again.NumEdges() {
				t.Fatalf("nondeterministic: %d then %d edges", sub.NumEdges(), again.NumEdges())
			}
		})
	}
}

func TestChordalSubgraphOfChordalInputIsIdentity(t *testing.T) {
	// A PEO of a chordal graph keeps every edge: the greedy clique test
	// never rejects when the later neighborhood is already a clique.
	g := must(synth.KTree(150, 4, 11))
	peo := verify.MCSOrder(g)
	sub, err := ChordalSubgraph(g, peo)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != g.NumEdges() {
		t.Fatalf("kept %d of %d edges of a chordal input under its own PEO", sub.NumEdges(), g.NumEdges())
	}
}

func TestChordalSubgraphRejectsBadOrders(t *testing.T) {
	g := buildGraph(3, [][2]int32{{0, 1}})
	for _, order := range [][]int32{{0, 1}, {0, 1, 1}, {0, 1, 5}, {0, -1, 2}} {
		if _, err := ChordalSubgraph(g, order); err == nil {
			t.Fatalf("order %v accepted", order)
		}
	}
}

// TestCompareOrders counts the fill of the three orderings that
// examples/ordering compares.
func TestCompareOrders(t *testing.T) {
	g, _, err := synth.KTreePlusNoise(120, 3, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	guided, err := ChordalGuidedOrder(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fills := map[string]int64{}
	for name, order := range map[string][]int32{
		"natural":   NaturalOrder(g.NumVertices()),
		"mindegree": minDegree(g),
		"chordal":   guided,
	} {
		if fills[name], err = Fill(g, order); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// The guided order must beat natural on a noised k-tree (most fill
	// confined to the 60 noise edges).
	if fills["chordal"] > fills["natural"] {
		t.Fatalf("chordal-guided fill %d worse than natural %d", fills["chordal"], fills["natural"])
	}
}
