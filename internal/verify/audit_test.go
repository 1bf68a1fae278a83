package verify_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"chordal"
	"chordal/internal/chordalalg"
	"chordal/internal/verify"
)

// auditSources is the zoo of the root package's differential grid: one
// graph per structural family, sized for test time.
var auditSources = []string{
	"rmat-er:8:3", "rmat-g:9:11", "rmat-b:8:5",
	"gnm:400:1600:5", "ws:300:6:0.1:9", "geo:300:0.08:11", "ktree:200:4:13",
	"gse5140-crt:64:3",
}

// auditEngines is the engine rows of the root package's differential
// grid. repair marks the engines that take the repair post-pass.
var auditEngines = []struct {
	label  string
	spec   chordal.Spec
	repair bool
}{
	{"parallel", chordal.Spec{Engine: chordal.EngineParallel}, true},
	{"partitioned", chordal.Spec{Engine: chordal.EnginePartitioned, EngineConfig: chordal.EngineConfig{Partitions: 4}}, false},
	{"sharded", chordal.Spec{Engine: chordal.EngineSharded, EngineConfig: chordal.EngineConfig{Shards: 3}}, true},
	{"external", chordal.Spec{Engine: chordal.EngineExternal, EngineConfig: chordal.EngineConfig{Shards: 3, ResidentShards: 2}}, true},
	{"dearing", chordal.Spec{Engine: chordal.EngineDearing}, false},
	{"dearing-start7", chordal.Spec{Engine: chordal.EngineDearing, EngineConfig: chordal.EngineConfig{Start: 7}}, false},
	{"elimination-mindeg", chordal.Spec{Engine: chordal.EngineElimination, EngineConfig: chordal.EngineConfig{Order: chordal.OrderMinDegree}}, false},
	{"elimination-natural", chordal.Spec{Engine: chordal.EngineElimination, EngineConfig: chordal.EngineConfig{Order: chordal.OrderNatural}}, false},
}

// TestAuditMaximalityZooGrid requires the clique-forest audit and the
// BFS oracle to return the same violations in the same order, at no
// limit and at the verify stage's limit of 10, on every zoo source ×
// engine × repair on/off where the engine takes it. The audit runs from
// the validated MCS order, as the verify stage hands it over. The grid
// must hold both maximal and non-maximal outputs.
func TestAuditMaximalityZooGrid(t *testing.T) {
	maximal, open := 0, 0
	for _, src := range auditSources {
		acq, err := chordal.Spec{Source: src, Engine: chordal.EngineNone}.Run()
		if err != nil {
			t.Fatal(err)
		}
		g := acq.Input
		for _, eng := range auditEngines {
			for _, repair := range []bool{false, true} {
				if repair && !eng.repair {
					continue
				}
				name := fmt.Sprintf("%s/%s/repair=%t", src, eng.label, repair)
				spec := eng.spec
				spec.Repair = repair
				res, err := chordal.Runner{Input: g}.Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sub := res.Subgraph
				peo, _, ok := verify.PEO(sub)
				if !ok {
					t.Fatalf("%s: output is not chordal", name)
				}
				for _, limit := range []int{0, 10} {
					want := verify.OracleAuditMaximality(g, sub, limit)
					got, err := verify.AuditMaximalityFromPEO(context.Background(), g, sub, peo, limit)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s, limit %d: audit = %v, %v; oracle %v", name, limit, got, err, want)
					}
					if limit == 0 {
						if len(want) == 0 {
							maximal++
						} else {
							open++
						}
					}
				}
			}
		}
	}
	if maximal == 0 || open == 0 {
		t.Fatalf("%d maximal and %d non-maximal outputs; want both", maximal, open)
	}
}

// TestPEOWidthZoo requires PEO's width, the largest label its maximum
// cardinality search assigned at pick time, to equal the largest later
// neighborhood of the order it returns (chordalalg.TreewidthFromPEO),
// on every zoo input, which is not chordal, and on its one-worker
// parallel extraction, where the width is the treewidth.
func TestPEOWidthZoo(t *testing.T) {
	for _, src := range auditSources {
		res, err := chordal.Spec{Source: src, Engine: chordal.EngineParallel, EngineConfig: chordal.EngineConfig{Workers: 1}}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*chordal.Graph{res.Input, res.Subgraph} {
			order, width, ok := verify.PEO(g)
			if want := chordalalg.TreewidthFromPEO(g, order); width != want {
				t.Errorf("%s (chordal %t): PEO width %d, TreewidthFromPEO %d", src, ok, width, want)
			}
		}
	}
}

// BenchmarkAuditMaximal audits a maximal output, the shape a stream's
// Close audits: the parallel engine with repair on rmat-b:11, at the
// verify stage's limit of 10, from the validated MCS order. The tree
// sub-benchmark is the audit; bfs-oracle is the separator search per
// absent edge it replaced.
func BenchmarkAuditMaximal(b *testing.B) {
	res, err := chordal.Spec{Source: "rmat-b:11", Engine: chordal.EngineParallel, EngineConfig: chordal.EngineConfig{Repair: true}}.Run()
	if err != nil {
		b.Fatal(err)
	}
	g, sub := res.Input, res.Subgraph
	peo, _, ok := verify.PEO(sub)
	if !ok {
		b.Fatal("output is not chordal")
	}
	if len(verify.AuditMaximality(g, sub, 0)) != 0 {
		b.Fatal("repaired output is not maximal")
	}
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err := verify.AuditMaximalityFromPEO(context.Background(), g, sub, peo, 10); err != nil || len(out) != 0 {
				b.Fatalf("audit = %v, %v", out, err)
			}
		}
	})
	b.Run("bfs-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := verify.OracleAuditMaximality(g, sub, 10); len(out) != 0 {
				b.Fatalf("oracle audit = %v", out)
			}
		}
	})
}
