package chordal_test

import (
	"context"
	"testing"

	"chordal"
	"chordal/internal/chordalalg"
	"chordal/internal/quality"
	"chordal/internal/verify"
)

// This file is the differential half of the engine bake-off: several
// independent implementations of "extract a chordal subgraph" now live
// behind one Engine interface, so each one's output can be judged by
// every *other* implementation's notion of chordality. A bug would
// have to fool the MCS+PEO verifier, the PEO-based chordalalg stack,
// and the elimination-tree fill count identically to slip through.

// differentialSources is the zoo of the cross-engine checks: one graph
// per structural family, sized for test time.
var differentialSources = []string{
	"rmat-er:8:3", "rmat-g:9:11", "rmat-b:8:5",
	"gnm:400:1600:5", "ws:300:6:0.1:9", "geo:300:0.08:11", "ktree:200:4:13",
	"gse5140-crt:64:3",
}

// differentialEngines lists every engine configuration of the grid.
func differentialEngines() []struct {
	label string
	spec  chordal.Spec
} {
	type row = struct {
		label string
		spec  chordal.Spec
	}
	return []row{
		{"parallel", chordal.Spec{Engine: chordal.EngineParallel}},
		{"partitioned", chordal.Spec{Engine: chordal.EnginePartitioned, EngineConfig: chordal.EngineConfig{Partitions: 4}}},
		{"sharded", chordal.Spec{Engine: chordal.EngineSharded, EngineConfig: chordal.EngineConfig{Shards: 3}}},
		{"external", chordal.Spec{Engine: chordal.EngineExternal, EngineConfig: chordal.EngineConfig{Shards: 3, ResidentShards: 2}}},
		{"dearing", chordal.Spec{Engine: chordal.EngineDearing}},
		{"dearing-start7", chordal.Spec{Engine: chordal.EngineDearing, EngineConfig: chordal.EngineConfig{Start: 7}}},
		{"elimination-mindeg", chordal.Spec{Engine: chordal.EngineElimination, EngineConfig: chordal.EngineConfig{Order: chordal.OrderMinDegree}}},
		{"elimination-natural", chordal.Spec{Engine: chordal.EngineElimination, EngineConfig: chordal.EngineConfig{Order: chordal.OrderNatural}}},
	}
}

// TestEngineDifferentialGrid cross-verifies every engine's output with
// the independent chordality oracles: the MCS+PEO verifier (what the
// verify stage runs), the hole finder (a constructive witness search),
// the chordalalg PEO (which re-derives and re-checks its own ordering),
// and the metamorphic fill identity — elimination of a chordal graph
// under its own perfect elimination ordering creates exactly zero fill.
// The quality stage's treewidth must match chordalalg.TreewidthFromPEO
// over that ordering. Each output must also be a subgraph of its input,
// and the dearing engine's result must be maximal from every start
// vertex.
// Runs under -race in CI.
func TestEngineDifferentialGrid(t *testing.T) {
	for _, src := range differentialSources {
		src := src
		t.Run(src, func(t *testing.T) {
			t.Parallel()
			acq, err := chordal.Spec{Source: src, Engine: chordal.EngineNone}.Run()
			if err != nil {
				t.Fatal(err)
			}
			g := acq.Input
			for _, eng := range differentialEngines() {
				res, err := chordal.Runner{Input: g}.Run(context.Background(), eng.spec)
				if err != nil {
					t.Fatalf("%s: %v", eng.label, err)
				}
				sub := res.Subgraph
				if sub == nil || sub.NumEdges() == 0 {
					t.Fatalf("%s: empty extraction", eng.label)
				}
				if !isSubgraphOf(sub, g) {
					t.Errorf("%s: output contains an edge absent from the input", eng.label)
				}
				// Oracle 1: MCS + PEO check (internal/verify).
				if !chordal.IsChordal(sub) {
					t.Errorf("%s: verifier says output is not chordal", eng.label)
				}
				// Oracle 2: the hole finder must fail to produce a witness.
				if hole := verify.FindHole(verify.AdjFromGraph(sub)); hole != nil {
					t.Errorf("%s: found chordless cycle %v in output", eng.label, hole)
				}
				// Oracle 3: chordalalg derives its own PEO or errors.
				peo, err := chordal.PerfectEliminationOrdering(sub)
				if err != nil {
					t.Errorf("%s: PEO derivation failed: %v", eng.label, err)
					continue
				}
				// The quality stage's treewidth, the largest label of the
				// certificate's MCS (the sharded and external engines hand
				// over their self-check's), must match a recount over the
				// order.
				if q := res.Quality; q == nil || !q.CliquesComputed || q.Treewidth != chordalalg.TreewidthFromPEO(sub, peo) {
					t.Errorf("%s: quality %+v, want treewidth %d", eng.label, q, chordalalg.TreewidthFromPEO(sub, peo))
				}
				// Metamorphic identity: zero fill under the subgraph's own
				// PEO — ties the fill count to the verifier.
				fill, err := chordal.Fill(sub, peo)
				if err != nil {
					t.Errorf("%s: fill: %v", eng.label, err)
				} else if fill != 0 {
					t.Errorf("%s: chordal output has fill %d under its own PEO, want 0", eng.label, fill)
				}
				// The serial-growth engine guarantees maximality from any
				// start vertex.
				if eng.spec.Engine == chordal.EngineDearing {
					if !chordal.IsMaximalChordal(g, sub) {
						t.Errorf("%s: output is not a maximal chordal subgraph", eng.label)
					}
				}
			}
		})
	}
}

// TestEngineQualityConsistency pins the quality metrics' internal
// consistency on one representative run per engine: retention matches
// the actual edge counts, the subgraph's self-fill is zero, and the
// chordal invariants respect their definitional relations (chromatic
// number = clique number = treewidth + 1 on a chordal graph). The
// Runner scores from the verify stage's certificate and reports the
// self-fill as 0 without counting it, so the test recounts it under the
// subgraph's own PEO and requires the certificate path to agree field
// for field with a standalone quality.Compute, and a run without a
// verify stage to score the same.
func TestEngineQualityConsistency(t *testing.T) {
	for _, eng := range differentialEngines() {
		spec := eng.spec
		spec.Source = "rmat-g:9:11"
		spec.Verify = true
		res, err := spec.Run()
		if err != nil {
			t.Fatalf("%s: %v", eng.label, err)
		}
		q := res.Quality
		if q == nil {
			t.Fatalf("%s: quality metrics missing", eng.label)
		}
		if q.EdgesRetained != res.Subgraph.NumEdges() || q.EdgesInput != res.Input.NumEdges() {
			t.Errorf("%s: retention counts %d/%d, want %d/%d",
				eng.label, q.EdgesRetained, q.EdgesInput, res.Subgraph.NumEdges(), res.Input.NumEdges())
		}
		if !q.FillComputed || q.SubgraphFill != 0 {
			t.Errorf("%s: subgraph self-fill computed=%t fill=%d, want computed with 0",
				eng.label, q.FillComputed, q.SubgraphFill)
		}
		peo, err := chordal.PerfectEliminationOrdering(res.Subgraph)
		if err != nil {
			t.Fatalf("%s: %v", eng.label, err)
		}
		if fill, err := chordal.Fill(res.Subgraph, peo); err != nil || fill != 0 {
			t.Errorf("%s: recounted self-fill %d (err %v), want 0", eng.label, fill, err)
		}
		want, err := quality.Compute(res.Input, res.Subgraph, quality.DefaultLimits())
		if err != nil {
			t.Fatalf("%s: %v", eng.label, err)
		}
		if *q != *want {
			t.Errorf("%s: Runner quality %+v, quality.Compute %+v", eng.label, *q, *want)
		}
		// Without a verify stage the quality stage takes the certificate
		// itself, and scores the same.
		spec.Verify = false
		unverified, err := spec.Run()
		if err != nil {
			t.Fatalf("%s without verify: %v", eng.label, err)
		}
		if uq := unverified.Quality; uq == nil || *uq != *q {
			t.Errorf("%s: quality without verify %+v, with verify %+v", eng.label, uq, *q)
		}
		if !q.CliquesComputed {
			t.Fatalf("%s: chordal invariants skipped on a small input", eng.label)
		}
		if q.MaxCliqueSize != q.Treewidth+1 {
			t.Errorf("%s: max clique %d != treewidth %d + 1", eng.label, q.MaxCliqueSize, q.Treewidth)
		}
		if q.ChromaticNumber != q.MaxCliqueSize {
			t.Errorf("%s: chromatic number %d != clique number %d on a chordal (perfect) graph",
				eng.label, q.ChromaticNumber, q.MaxCliqueSize)
		}
	}
}
