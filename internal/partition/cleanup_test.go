package partition

import (
	"testing"

	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/verify"
)

func TestExtractAndCleanAlwaysChordal(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randomGraph(200, 1200, seed)
		res, rep := ExtractAndClean(g, 6)
		if !rep.Chordal || !res.Chordal {
			t.Fatalf("seed %d: cleanup did not reach chordality", seed)
		}
		sub := graph.FromSortedEdges(200, res.Edges)
		if !verify.IsChordal(sub) {
			t.Fatalf("seed %d: final subgraph not chordal", seed)
		}
	}
}

func TestCleanupOnStructuredInput(t *testing.T) {
	// RMAT-B with several partitions usually needs the cleanup; the
	// report should show the repeated rounds the paper warns about.
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	res := Extract(g, 6)
	if res.Chordal {
		t.Skip("this instance happened to be chordal; nothing to clean")
	}
	before := len(res.Edges)
	rep := res.Cleanup(g.NumVertices(), PartOf(g.NumVertices(), 6), 0)
	if !rep.Chordal {
		t.Fatal("cleanup did not converge")
	}
	if rep.Removed == 0 || rep.Rounds == 0 {
		t.Fatalf("non-chordal input cleaned with no work: %+v", rep)
	}
	if len(res.Edges) != before-rep.Removed {
		t.Fatalf("edge accounting: %d -> %d with %d removed", before, len(res.Edges), rep.Removed)
	}
	if !verify.IsChordal(graph.FromSortedEdges(g.NumVertices(), res.Edges)) {
		t.Fatal("result not chordal after cleanup")
	}
}

func TestCleanupRoundLimit(t *testing.T) {
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 10, 9))
	if err != nil {
		t.Fatal(err)
	}
	res := Extract(g, 8)
	if res.Chordal {
		t.Skip("instance already chordal")
	}
	rep := res.Cleanup(g.NumVertices(), PartOf(g.NumVertices(), 8), 1)
	if rep.Rounds > 1 {
		t.Fatalf("round limit ignored: %d rounds", rep.Rounds)
	}
}

func TestCleanupNoopOnChordal(t *testing.T) {
	g := randomGraph(50, 100, 5)
	res, _ := ExtractAndClean(g, 1) // single partition: serial, chordal
	rep := res.Cleanup(50, PartOf(50, 1), 0)
	if rep.Removed != 0 || rep.Rounds != 0 || !rep.Chordal {
		t.Fatalf("noop cleanup did work: %+v", rep)
	}
}
