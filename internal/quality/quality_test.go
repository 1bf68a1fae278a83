package quality

import (
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/chordalalg"
	"chordal/internal/core"
	"chordal/internal/elimination"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
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

func TestComputeOnChordalIdentity(t *testing.T) {
	// Scoring a chordal graph against itself: full retention, zero fill
	// both ways, and the exact k-tree invariants.
	g := must(synth.KTree(120, 4, 7))
	m, err := Compute(g, g, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if m.EdgesInput != g.NumEdges() || m.EdgesRetained != g.NumEdges() || m.RetentionPct != 100 {
		t.Fatalf("identity retention: %+v", m)
	}
	if !m.FillComputed || m.FillIn != 0 || m.SubgraphFill != 0 {
		t.Fatalf("identity fill: %+v", m)
	}
	if !m.CliquesComputed || m.Treewidth != 4 || m.MaxCliqueSize != 5 || m.ChromaticNumber != 5 {
		t.Fatalf("k-tree invariants: %+v", m)
	}
	requireNoSelfFill(t, g)
}

// requireNoSelfFill recounts the fill of sub under its own validated
// PEO, which Compute reports as 0 without counting: the identity is
// tested here, not computed in production.
func requireNoSelfFill(t *testing.T, sub *graph.Graph) {
	t.Helper()
	peo, _, ok := verify.PEO(sub)
	if !ok {
		t.Fatal("subgraph is not chordal")
	}
	fill, err := elimination.Fill(sub, peo)
	if err != nil {
		t.Fatal(err)
	}
	if fill != 0 {
		t.Fatalf("subgraph fill under its own PEO = %d, want 0", fill)
	}
}

func TestComputeRejectsMismatchedAndNonChordal(t *testing.T) {
	g := must(synth.KTree(50, 3, 1))
	if _, err := Compute(g, must(synth.KTree(40, 3, 1)), DefaultLimits()); err == nil {
		t.Fatal("vertex-count mismatch accepted")
	}
	// C4 is not chordal: no PEO, so no score.
	b := graph.NewBuilder(50)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	if _, err := Compute(g, b.Build(), DefaultLimits()); err == nil {
		t.Fatal("non-chordal subgraph accepted")
	}
}

func TestComputeLimitsSkipGroups(t *testing.T) {
	g, _, err := synth.KTreePlusNoise(200, 3, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	sub := must(synth.KTree(200, 3, 9)) // the noiseless core is a subgraph
	// A tiny vertex bound skips the clique group; fill is exact
	// regardless: the input's fill under the core's PEO, which the
	// elimination package pins to the elimination game.
	m, err := Compute(g, sub, Limits{MaxCliqueVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := elimination.Fill(g, verify.MCSOrder(sub))
	if err != nil {
		t.Fatal(err)
	}
	if !m.FillComputed || m.FillIn != want || m.SubgraphFill != 0 {
		t.Fatalf("fill on the noised k-tree: %+v, want fillIn %d and subgraphFill 0", m, want)
	}
	if want == 0 {
		t.Fatal("fixture too clean: the noise edges create no fill")
	}
	if m.CliquesComputed {
		t.Fatalf("clique group ran over the vertex bound: %+v", m)
	}
	if m.EdgesRetained != sub.NumEdges() {
		t.Fatalf("retention always computed: %+v", m)
	}
	requireNoSelfFill(t, sub)
}

func TestComputeFromPEOMatchesCompute(t *testing.T) {
	g, _, err := synth.KTreePlusNoise(300, 4, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Extract(g, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.ToGraph()
	want, err := Compute(g, sub, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	peo, width, ok := verify.PEO(sub)
	if !ok {
		t.Fatal("extracted subgraph is not chordal")
	}
	got, err := ComputeFromPEO(g, sub, peo, width, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("ComputeFromPEO %+v, Compute %+v", *got, *want)
	}
	if want.FillIn == 0 || want.SubgraphFill != 0 {
		t.Fatalf("fill on the noised k-tree: %+v", *want)
	}
	requireNoSelfFill(t, sub)
	// The trusted order is still checked for being a permutation, and
	// the vertex sets must match.
	if _, err := ComputeFromPEO(g, sub, peo[:len(peo)-1], width, DefaultLimits()); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := ComputeFromPEO(must(synth.KTree(299, 4, 5)), sub, peo, width, DefaultLimits()); err == nil {
		t.Fatal("vertex-count mismatch accepted")
	}
}

// TestChromaticNumberMatchesColoring checks ChromaticNumber, which
// ComputeFromPEO takes from the treewidth, against the optimal first-fit
// coloring along the same PEO on one extracted subgraph per generator
// family, an edgeless graph and the empty vertex set.
func TestChromaticNumberMatchesColoring(t *testing.T) {
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
	zoo := map[string]*graph.Graph{
		"gnm":         must(synth.GNM(200, 800, 3)),
		"ws":          must(synth.WattsStrogatz(200, 6, 0.1, 9)),
		"geo":         must(synth.RandomGeometric(200, synth.GeometricRadiusForDegree(200, 8), 11)),
		"ktree":       must(synth.KTree(150, 4, 13)),
		"ktree-noise": noised,
		"rmat-b":      rm,
		"bio":         bio,
		"edgeless":    graph.NewBuilder(5).Build(),
		"empty":       graph.NewBuilder(0).Build(),
	}
	for name, g := range zoo {
		res, err := core.Extract(g, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sub := res.ToGraph()
		peo, width, ok := verify.PEO(sub)
		if !ok {
			t.Fatalf("%s: extracted subgraph is not chordal", name)
		}
		m, err := ComputeFromPEO(g, sub, peo, width, DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		if _, want := chordalalg.ColoringFromPEO(sub, peo); m.ChromaticNumber != want {
			t.Errorf("%s: ChromaticNumber %d, coloring along the PEO uses %d colors", name, m.ChromaticNumber, want)
		}
	}
}

// BenchmarkQualitySmallWorld scores the one-worker parallel extraction
// of the ring-lattice small world ws:20000:8:0.1:42 against its input:
// the quality work of one kernel-ws operation at a fifth of its size.
func BenchmarkQualitySmallWorld(b *testing.B) {
	g := must(synth.WattsStrogatz(20000, 8, 0.1, 42, 1))
	res, err := core.Extract(g, core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sub := res.ToGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Compute(g, sub, DefaultLimits())
		if err != nil {
			b.Fatal(err)
		}
		if m.FillIn == 0 {
			b.Fatal("no fill on a non-chordal input")
		}
	}
}
