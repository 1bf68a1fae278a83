package core

import (
	"testing"

	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

// This file exercises the hybrid subset-test kernel: the bitset probe
// must be an exact drop-in for the merge scan at every threshold, worker
// count, grain, and schedule that pins output order.

// sameEdges reports whether two extractions produced identical edge
// lists (same edges, same order).
func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHybridMatchesMergeScan is the kernel agreement property: on
// skewed and uniform random graphs, extraction with the bitset probe
// enabled at any threshold is byte-identical to the pure merge scan
// under every order-pinning schedule and worker count.
func TestHybridMatchesMergeScan(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat-b:10":  mustRMAT(t, rmat.B, 10, 7),
		"rmat-g:9":   mustRMAT(t, rmat.G, 9, 11),
		"gnm:512:4k": randomGraph(512, 4096, 13),
	}
	for name, g := range graphs {
		for _, sched := range []Schedule{ScheduleDataflow, ScheduleSynchronous} {
			base, err := Extract(g, Options{Schedule: sched, Workers: 1, DegreeThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, thr := range []int{1, 8, 32, 1 << 20} {
				for _, workers := range []int{1, 2, 4} {
					for _, grain := range []int{1, 64, 4096} {
						res, err := Extract(g, Options{
							Schedule:        sched,
							Workers:         workers,
							Grain:           grain,
							DegreeThreshold: thr,
						})
						if err != nil {
							t.Fatal(err)
						}
						if !sameEdges(base.Edges, res.Edges) {
							t.Fatalf("%s %v: threshold=%d workers=%d grain=%d diverged from merge scan (%d vs %d edges)",
								name, sched, thr, workers, grain, res.NumChordalEdges(), base.NumChordalEdges())
						}
					}
				}
			}
		}
	}
}

// TestHybridAsyncChordal checks the async schedule too: output order is
// not pinned there, so assert the invariants instead — chordality and
// an edge count matching the merge scan's under one worker.
func TestHybridAsyncChordal(t *testing.T) {
	g := mustRMAT(t, rmat.B, 10, 21)
	base, err := Extract(g, Options{Schedule: ScheduleAsync, Workers: 1, DegreeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, thr := range []int{1, 32} {
		res, err := Extract(g, Options{Schedule: ScheduleAsync, Workers: 1, DegreeThreshold: thr})
		if err != nil {
			t.Fatal(err)
		}
		if !sameEdges(base.Edges, res.Edges) {
			t.Fatalf("threshold=%d: single-worker async diverged from merge scan", thr)
		}
		if !verify.IsChordal(res.ToGraph()) {
			t.Fatalf("threshold=%d: async hybrid output not chordal", thr)
		}
	}
}

// TestResolvedTuningRecorded pins that Result reports the tuning values
// the run actually used, including the defaulting of zeros.
func TestResolvedTuningRecorded(t *testing.T) {
	g := mustRMAT(t, rmat.G, 8, 3)
	res, err := Extract(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersUsed != 2 || res.Grain != defaultGrain || res.DegreeThreshold != defaultDegreeThreshold {
		t.Fatalf("defaults not recorded: workers=%d grain=%d threshold=%d",
			res.WorkersUsed, res.Grain, res.DegreeThreshold)
	}
	res, err = Extract(g, Options{Workers: 1, Grain: 17, DegreeThreshold: -5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grain != 17 || res.DegreeThreshold != -1 {
		t.Fatalf("explicit values not recorded: grain=%d threshold=%d", res.Grain, res.DegreeThreshold)
	}
}

// benchGraph is the dense hub-heavy benchmark input shared by the
// kernel benchmarks; built once.
var benchGraph = func() *graph.Graph {
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 12, 42))
	if err != nil {
		panic(err)
	}
	return g
}()

func benchExtract(b *testing.B, threshold int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Extract(benchGraph, Options{Workers: 1, DegreeThreshold: threshold})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumChordalEdges() == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkExtractMergeScan is the pure merge-scan baseline on a
// skewed scale-12 R-MAT graph.
func BenchmarkExtractMergeScan(b *testing.B) { benchExtract(b, -1) }

// BenchmarkExtractHybrid is the same workload with the bitset probe at
// the default threshold.
func BenchmarkExtractHybrid(b *testing.B) { benchExtract(b, defaultDegreeThreshold) }

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
