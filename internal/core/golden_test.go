package core

import (
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/rmat"
)

// TestGoldenCounts pins exact chordal edge and iteration counts for
// fixed-seed inputs under the deterministic dataflow schedule. Any
// change to the generators, the queue discipline, or the subset test
// shows up here first; update the constants only after confirming the
// new values are correct (chordality + maximality audits). Extraction
// runs on one worker: with several, the iteration count depends on
// thread timing.
func TestGoldenCounts(t *testing.T) {
	type row struct {
		name      string
		edges     int64
		chordal   int
		iterCount int
	}
	var got []row

	for _, preset := range []rmat.Preset{rmat.ER, rmat.G, rmat.B} {
		g, err := rmat.Generate(rmat.PresetParams(preset, 10, 20120910))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Extract(g, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row{preset.String(), g.NumEdges(), res.NumChordalEdges(), len(res.Iterations)})
	}
	bg, err := biogen.Generate(biogen.PresetParams(biogen.GSE5140UNT, 64, 20120910))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(bg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, row{"GSE5140(UNT)/64", bg.NumEdges(), res.NumChordalEdges(), len(res.Iterations)})

	want := []row{
		// Pinned after R-MAT sampling moved from per-worker to
		// fixed-chunk PRNG streams (the sampled graph is now independent
		// of worker count and machine, the invariant the service's
		// generated-input cache relies on); the new instances were
		// re-audited: extraction output chordal, byte-identical across
		// worker counts, usual few §5 repairable edges.
		{"RMAT-ER", 8116, 1021, 7},
		{"RMAT-G", 7579, 1259, 8},
		{"RMAT-B", 6745, 1618, 9},
		// Pinned after the biogen generator moved its module and hub
		// sampling onto per-module PRNG streams (parallel generation);
		// the new instance was re-audited: extraction output chordal,
		// deterministic across runs, usual few §5 repairable edges.
		{"GSE5140(UNT)/64", 9903, 1600, 12},
	}
	if len(got) != len(want) {
		t.Fatalf("row count %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
