package core

import (
	"testing"

	"chordal/internal/rmat"
	"chordal/internal/synth"
)

// BenchmarkExtractSkewedRMAT is one-worker extraction of a hub-heavy
// scale-12 R-MAT graph, where the merge scans against large hub
// chordal sets dominate.
func BenchmarkExtractSkewedRMAT(b *testing.B) {
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 12, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Extract(g, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumChordalEdges() == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkExtractDataflowSmallWorld is one-worker extraction of the
// ring-lattice small world ws:20000:8:0.1: a long dependency chain
// where most queued parents wait for their chordal sets to finalize,
// so it measures how cheaply the frontier skips waiting parents (its
// ready gate) against the subset tests themselves.
func BenchmarkExtractDataflowSmallWorld(b *testing.B) {
	g := synth.WattsStrogatz(20000, 8, 0.1, 42, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Extract(g, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumChordalEdges() == 0 {
			b.Fatal("empty extraction")
		}
	}
}
