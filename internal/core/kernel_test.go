package core

import (
	"testing"

	"chordal/internal/graph"
	"chordal/internal/rmat"
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

// benchExtract times one-worker extraction of g.
func benchExtract(b *testing.B, g *graph.Graph) {
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

// BenchmarkExtractSkewedRMAT is one-worker extraction of a hub-heavy
// scale-12 R-MAT graph, where the merge scans against large hub
// chordal sets dominate.
func BenchmarkExtractSkewedRMAT(b *testing.B) {
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 12, 42))
	if err != nil {
		b.Fatal(err)
	}
	benchExtract(b, g)
}

// BenchmarkExtractDataflowSmallWorld is one-worker extraction of the
// ring-lattice small world ws:20000:8:0.1: a long dependency chain
// where most queued parents wait for their chordal sets to finalize,
// so it measures how cheaply the frontier skips waiting parents (its
// ready gate) against the subset tests themselves.
func BenchmarkExtractDataflowSmallWorld(b *testing.B) {
	benchExtract(b, must(synth.WattsStrogatz(20000, 8, 0.1, 42, 1)))
}

// BenchmarkExtractDataflowSmallWorld100k is the same extraction at
// ws:100000:8:0.1:7, the input of a kernel-ws operation, whose CSR and
// chordal sets no longer fit in L2: about 700 dependent iterations in
// which each lowest-parent advance reads a candidate that the subset
// test has just brought into cache.
func BenchmarkExtractDataflowSmallWorld100k(b *testing.B) {
	benchExtract(b, must(synth.WattsStrogatz(100000, 8, 0.1, 7, 1)))
}
