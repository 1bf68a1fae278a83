package quality

import (
	"testing"

	"chordal/internal/elimination"
	"chordal/internal/graph"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

func TestComputeOnChordalIdentity(t *testing.T) {
	// Scoring a chordal graph against itself: full retention, zero fill
	// both ways, and the exact k-tree invariants.
	g := synth.KTree(120, 4, 7)
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
}

func TestComputeRejectsMismatchedAndNonChordal(t *testing.T) {
	g := synth.KTree(50, 3, 1)
	if _, err := Compute(g, synth.KTree(40, 3, 1), DefaultLimits()); err == nil {
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
	g, _ := synth.KTreePlusNoise(200, 3, 400, 9)
	sub := synth.KTree(200, 3, 9) // the noiseless core is a subgraph
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
}
