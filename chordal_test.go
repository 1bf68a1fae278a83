package chordal_test

import (
	"path/filepath"
	"testing"

	"chordal"
	"chordal/internal/analysis"
	"chordal/internal/biogen"
	"chordal/internal/dearing"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

// must returns a generator's graph and panics on its error: every
// generator call in these tests names parameters inside its bounds.
func must(g *chordal.Graph, err error) *chordal.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestQuickstartFlow(t *testing.T) {
	// The README's quickstart must work as written (at a smaller scale).
	src, err := chordal.ParseSource("rmat-er:10:42")
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	res, err := chordal.Extract(g, chordal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChordalEdges() == 0 || len(res.Iterations) == 0 {
		t.Fatal("empty extraction")
	}
	sub := res.ToGraph()
	if !chordal.IsChordal(sub) {
		t.Fatal("not chordal")
	}
}

func TestBuilderFacade(t *testing.T) {
	b := chordal.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := chordal.Extract(g, chordal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumChordalEdges() != 3 {
		t.Fatalf("C4 kept %d edges", res.NumChordalEdges())
	}
	g2, err := chordal.BuildFromEdges(3, []int32{0, 1}, []int32{1, 2})
	if err != nil || g2.NumEdges() != 2 {
		t.Fatalf("BuildFromEdges = %v, %v", g2, err)
	}
}

func TestSerialFacade(t *testing.T) {
	g := must(rmat.Generate(rmat.PresetParams(rmat.G, 9, 3)))
	sub := graph.FromSortedEdges(g.NumVertices(), dearing.Extract(g, 0).Edges)
	if !chordal.IsChordal(sub) {
		t.Fatal("serial result not chordal")
	}
	if !chordal.IsMaximalChordal(g, sub) {
		t.Fatal("serial result not maximal")
	}
}

func TestBioFacade(t *testing.T) {
	g, err := biogen.Generate(biogen.PresetParams(biogen.GSE17072NON, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chordal.Extract(g, chordal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !chordal.IsChordal(res.ToGraph()) {
		t.Fatal("bio extraction not chordal")
	}
}

func TestChordalAlgorithmsFacade(t *testing.T) {
	g := must(rmat.Generate(rmat.PresetParams(rmat.B, 9, 4)))
	res, _ := chordal.Extract(g, chordal.Options{})
	sub := res.ToGraph()

	peo, err := chordal.PerfectEliminationOrdering(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(peo) != sub.NumVertices() {
		t.Fatal("PEO length")
	}
	clique, err := chordal.MaxClique(sub)
	if err != nil {
		t.Fatal(err)
	}
	colors, k, err := chordal.Coloring(sub)
	if err != nil {
		t.Fatal(err)
	}
	if k != len(clique) {
		t.Fatalf("chromatic %d != clique %d", k, len(clique))
	}
	sub.Edges(func(u, v int32) {
		if colors[u] == colors[v] {
			t.Fatal("improper coloring")
		}
	})
	td, err := chordal.Decompose(sub)
	if err != nil {
		t.Fatal(err)
	}
	if td.Width != len(clique)-1 {
		t.Fatalf("width %d != clique-1", td.Width)
	}
	// Non-chordal input is rejected.
	if _, err := chordal.MaxClique(g); err == nil {
		t.Fatal("MaxClique accepted a non-chordal graph")
	}
}

func TestBFSRelabelConnectivity(t *testing.T) {
	// The remark below Theorem 2: BFS numbering of a connected graph
	// makes the extracted subgraph connected.
	g := must(rmat.Generate(rmat.PresetParams(rmat.ER, 10, 6)))
	// Take the largest connected piece by relabeling and testing on the
	// BFS-relabeled graph directly: extract and check the component
	// containing vertex 0 spans all vertices reachable in g.
	rg := g.Relabel(analysis.BFSOrder(g, 0))
	res, err := chordal.Extract(rg, chordal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.ToGraph()
	// Every vertex reachable from 0 in rg must be reachable in sub.
	reachG := reach(rg, 0)
	reachS := reach(sub, 0)
	for v, inG := range reachG {
		if inG && !reachS[v] {
			t.Fatalf("vertex %d connected in input, disconnected in BFS-relabeled extraction", v)
		}
	}
}

func reach(g *chordal.Graph, src int32) []bool {
	seen := make([]bool, g.NumVertices())
	stack := []int32{src}
	seen[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

func TestSaveLoadFacade(t *testing.T) {
	g := must(rmat.Generate(rmat.PresetParams(rmat.ER, 8, 7)))
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := chordal.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := graph.LoadFileWorkers(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.NumVertices() != g.NumVertices() {
		t.Fatal("round trip lost data")
	}
}

func TestAnalysisFacade(t *testing.T) {
	g := must(biogen.Generate(biogen.PresetParams(biogen.GSE5140UNT, 64, 8)))
	if pts := analysis.ClusteringByDegree(g); len(pts) == 0 {
		t.Fatal("no clustering points")
	}
	if h := analysis.ShortestPathHistogram(g, 64); len(h) < 2 {
		t.Fatal("degenerate path histogram")
	}
	s := chordal.ComputeStats(g)
	if s.Vertices != g.NumVertices() {
		t.Fatal("stats mismatch")
	}
}

func TestExtendedFacade(t *testing.T) {
	// k-tree ground truth through the facade.
	kt := must(synth.KTree(60, 2, 5))
	if !chordal.IsChordal(kt) {
		t.Fatal("k-tree not chordal")
	}
	if hole := verify.FindHole(verify.AdjFromGraph(kt)); hole != nil {
		t.Fatalf("hole %v in chordal graph", hole)
	}

	// Non-chordal witness.
	b := chordal.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	c4, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if hole := verify.FindHole(verify.AdjFromGraph(c4)); len(hole) != 4 {
		t.Fatalf("C4 witness %v", hole)
	}

	// Elimination orderings.
	g := must(synth.GNM(120, 480, 9))
	order, err := chordal.ChordalGuidedOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	fill, err := chordal.Fill(g, order)
	if err != nil {
		t.Fatal(err)
	}
	md := chordal.MinDegreeOrder(g)
	mdFill, err := chordal.Fill(g, md)
	if err != nil {
		t.Fatal(err)
	}
	if fill < 0 || mdFill < 0 {
		t.Fatal("negative fill")
	}

	// Degree relabel keeps structure.
	dr := g.Relabel(analysis.DegreeOrder(g))
	if dr.NumEdges() != g.NumEdges() {
		t.Fatal("degree relabel changed edge count")
	}

	// Other generators produce valid graphs.
	ws := must(synth.WattsStrogatz(100, 3, 0.2, 4))
	geo := must(synth.RandomGeometric(200, 0.1, 4))
	for _, gg := range []*chordal.Graph{ws, geo} {
		res, err := chordal.Extract(gg, chordal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !chordal.IsChordal(res.ToGraph()) {
			t.Fatal("extraction not chordal")
		}
	}
}
