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

// benchExtract times extraction of g at the given worker count.
func benchExtract(b *testing.B, g *graph.Graph, workers int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Extract(g, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumChordalEdges() == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkExtractSkewedRMAT is one-worker extraction, the ascending
// sweep, of a hub-heavy scale-12 R-MAT graph, where the merge scans
// against large hub chordal sets dominate.
func BenchmarkExtractSkewedRMAT(b *testing.B) {
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 12, 42))
	if err != nil {
		b.Fatal(err)
	}
	benchExtract(b, g, 1)
}

// BenchmarkExtractDataflowSmallWorld is one-worker extraction, the
// ascending sweep, of the ring-lattice small world ws:20000:8:0.1: a
// long dependency chain, so beside its subset tests the sweep rebuilds
// a trace of hundreds of frontier iterations.
func BenchmarkExtractDataflowSmallWorld(b *testing.B) {
	benchExtract(b, must(synth.WattsStrogatz(20000, 8, 0.1, 42, 1)), 1)
}

// BenchmarkExtractDataflowSmallWorld100k is the same one-worker
// extraction at ws:100000:8:0.1:7, the input of a kernel-ws operation,
// whose CSR and chordal sets no longer fit in L2: each parent's subset
// tests read its children's sets from scattered lines.
func BenchmarkExtractDataflowSmallWorld100k(b *testing.B) {
	benchExtract(b, must(synth.WattsStrogatz(100000, 8, 0.1, 7, 1)), 1)
}

// BenchmarkExtractDataflowSmallWorld100kTwoWorkers runs the frontier on
// the same input at two workers: about 700 barrier-separated passes in
// which most queued parents wait for their chordal sets to become
// final, so it measures how cheaply the frontier skips them (its ready
// gate) against the subset tests and the barriers.
func BenchmarkExtractDataflowSmallWorld100kTwoWorkers(b *testing.B) {
	benchExtract(b, must(synth.WattsStrogatz(100000, 8, 0.1, 7, 1)), 2)
}
