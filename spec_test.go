package chordal_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chordal"
)

// mustCanonical returns the canonical encoding or fails the test.
func mustCanonical(t *testing.T, s chordal.Spec) string {
	t.Helper()
	c, err := s.Canonical()
	if err != nil {
		t.Fatalf("Canonical(%+v): %v", s, err)
	}
	return c
}

// TestSpecCanonicalGolden pins the canonical encoding of representative
// specs across all four engines, upload digests and shard options. The
// canonical string is the cache/dedup key of the library, CLI and
// service: if one of these goldens changes, every persisted cache key
// drifts — treat a failure here as an API break, not a test to update
// casually.
func TestSpecCanonicalGolden(t *testing.T) {
	cases := []struct {
		name string
		spec chordal.Spec
		want string
	}{
		{
			name: "parallel defaults",
			spec: chordal.Spec{Source: "rmat-er:12"},
			want: "v1 engine=parallel relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=false src=rmat-er:12:42:8",
		},
		{
			name: "parallel spelled-out options",
			spec: chordal.Spec{
				V:       1,
				Source:  " RMAT-ER:12:42:8 ",
				Relabel: "BFS",
				Engine:  "parallel",
				EngineConfig: chordal.EngineConfig{
					Variant:  "unopt",
					Schedule: "sync",
					Workers:  8, // excluded from identity
					Repair:   true,
				},
				Verify: true,
				Output: "sub.bin", // excluded from identity
			},
			want: "v1 engine=parallel relabel=bfs variant=unopt schedule=sync repair=true stitch=false partitions=0 shards=0 stitchonly=false verify=true src=rmat-er:12:42:8",
		},
		{
			// The serial alias normalizes to dearing from start vertex 0,
			// so it shares dearing's key.
			name: "serial alias of the dearing engine",
			spec: chordal.Spec{Source: "gnm:1000:5000", Engine: "serial", Verify: true},
			want: "v1 engine=dearing relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=true start=0 src=gnm:1000:5000:42",
		},
		{
			name: "partitioned engine implied by partitions",
			spec: chordal.Spec{Source: "rmat-g:10:7", EngineConfig: chordal.EngineConfig{Partitions: 8}},
			want: "v1 engine=partitioned relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=8 shards=0 stitchonly=false verify=false src=rmat-g:10:7:8",
		},
		{
			name: "sharded engine with stitch-only",
			spec: chordal.Spec{
				Source:       "rmat-g:10:7",
				EngineConfig: chordal.EngineConfig{Shards: 4, ShardStitchOnly: true},
				Verify:       true,
			},
			want: "v1 engine=sharded relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=4 stitchonly=true verify=true src=rmat-g:10:7:8",
		},
		{
			name: "stitch-only canonicalized away off the sharded engine",
			spec: chordal.Spec{Source: "gnm:100:300", EngineConfig: chordal.EngineConfig{ShardStitchOnly: true}},
			want: "v1 engine=parallel relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=false src=gnm:100:300:42",
		},
		{
			name: "dearing engine default start",
			spec: chordal.Spec{Source: "gnm:1000:5000", Engine: "dearing", Verify: true},
			want: "v1 engine=dearing relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=true start=0 src=gnm:1000:5000:42",
		},
		{
			name: "dearing engine explicit start",
			spec: chordal.Spec{Source: "gnm:1000:5000", Engine: "dearing", EngineConfig: chordal.EngineConfig{Start: 5}},
			want: "v1 engine=dearing relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=false start=5 src=gnm:1000:5000:42",
		},
		{
			name: "elimination engine defaults to mindeg",
			spec: chordal.Spec{Source: "gnm:1000:5000", Engine: "elimination", Verify: true},
			want: "v1 engine=elimination relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=true order=mindeg src=gnm:1000:5000:42",
		},
		{
			name: "elimination engine natural order",
			spec: chordal.Spec{Source: "gnm:1000:5000", Engine: "elimination", EngineConfig: chordal.EngineConfig{Order: " Natural "}},
			want: "v1 engine=elimination relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=false order=natural src=gnm:1000:5000:42",
		},
		{
			name: "upload digest",
			spec: chordal.Spec{
				Source: chordal.UploadSource("edges", sha256.Sum256([]byte("0 1\n1 2\n"))),
				Verify: true,
			},
			want: "v1 engine=parallel relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=0 stitchonly=false verify=true src=upload:edges:8ba65ee1bbe8297e30cab4c5fc9b62a8caa0dbe7b89298edf1da2609beb24ae1",
		},
	}
	for _, c := range cases {
		if got := mustCanonical(t, c.spec); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

// TestSpecDecodesRetiredTuningFields pins wire compatibility with
// specs persisted while the kernel still had a tunable grain and degree
// threshold: JSON carrying "grain" and "degreeThreshold" still decodes,
// keeps the canonical key of the same spec without them (neither field
// was ever part of the key), and runs.
func TestSpecDecodesRetiredTuningFields(t *testing.T) {
	for _, c := range []struct{ with, without string }{
		{
			`{"v":1,"source":" RMAT-ER:12:42:8 ","relabel":"BFS","engine":"parallel","variant":"unopt","schedule":"sync","workers":8,"grain":128,"degreeThreshold":16,"repair":true,"verify":true,"output":"sub.bin"}`,
			`{"v":1,"source":" RMAT-ER:12:42:8 ","relabel":"BFS","engine":"parallel","variant":"unopt","schedule":"sync","workers":8,"repair":true,"verify":true,"output":"sub.bin"}`,
		},
		{
			`{"source":"gnm:300:1200:3","shards":2,"grain":128,"degreeThreshold":16,"verify":true}`,
			`{"source":"gnm:300:1200:3","shards":2,"verify":true}`,
		},
	} {
		var with, without chordal.Spec
		if err := json.Unmarshal([]byte(c.with), &with); err != nil {
			t.Fatalf("decode %s: %v", c.with, err)
		}
		if err := json.Unmarshal([]byte(c.without), &without); err != nil {
			t.Fatal(err)
		}
		if got, want := mustCanonical(t, with), mustCanonical(t, without); got != want {
			t.Errorf("%s:\n key  %s\n want %s", c.with, got, want)
		}
		if with.Output != "" {
			continue // runs only the cases that write no file
		}
		res, err := with.Run()
		if err != nil {
			t.Fatalf("run %s: %v", c.with, err)
		}
		if !res.ChordalOK || res.Subgraph.NumEdges() == 0 {
			t.Fatalf("run %s: chordal %t, %d edges", c.with, res.ChordalOK, res.Subgraph.NumEdges())
		}
	}
}

// TestSpecJSONRoundTrip is the stability property: for a grid of specs,
// normalize → JSON → decode → normalize must reproduce the identical
// spec and canonical key, so specs can be persisted, shipped over the
// service API, and replayed without identity drift.
func TestSpecJSONRoundTrip(t *testing.T) {
	var grid []chordal.Spec
	for _, engine := range []string{"", "parallel", "serial", "partitioned", "sharded", "dearing", "elimination", "none"} {
		for _, relabel := range []string{"", "bfs", "degree"} {
			for _, verifyOn := range []bool{false, true} {
				s := chordal.Spec{
					Source:  "rmat-b:9:7",
					Engine:  engine,
					Relabel: relabel,
					Verify:  verifyOn,
					EngineConfig: chordal.EngineConfig{
						Variant:  "opt",
						Schedule: "async",
						Repair:   verifyOn,
					},
				}
				if engine == "partitioned" {
					s.Partitions = 4
				}
				if engine == "sharded" {
					s.Shards = 4
					s.ShardStitchOnly = true
				}
				if engine == "dearing" {
					s.Start = 7
				}
				if engine == "elimination" {
					s.Order = "natural"
				}
				if engine == "none" && verifyOn {
					continue // invalid by construction: verify needs an engine
				}
				grid = append(grid, s)
			}
		}
	}
	if len(grid) < 30 {
		t.Fatalf("grid too small: %d", len(grid))
	}
	for _, s := range grid {
		norm, err := s.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", s, err)
		}
		blob, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back chordal.Spec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		back2, err := back.Normalize()
		if err != nil {
			t.Fatalf("re-normalize %s: %v", blob, err)
		}
		if !reflect.DeepEqual(norm, back2) {
			t.Errorf("round trip drifted:\n before %+v\n after  %+v", norm, back2)
		}
		if mustCanonical(t, norm) != mustCanonical(t, back2) {
			t.Errorf("canonical drifted across JSON round trip for %s", blob)
		}
	}
}

// TestSpecValidationErrors pins the redesign's central contract:
// conflicting or unknown engine selections are errors, never silent
// precedence.
func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		spec    chordal.Spec
		errWant string
	}{
		{"unknown engine", chordal.Spec{Source: "gnm:10:20", Engine: "warp"}, "unknown engine"},
		{"serial+shards", chordal.Spec{Source: "gnm:10:20", Engine: "serial", EngineConfig: chordal.EngineConfig{Shards: 4}}, "conflict"},
		{"serial+partitions", chordal.Spec{Source: "gnm:10:20", Engine: "serial", EngineConfig: chordal.EngineConfig{Partitions: 2}}, "conflict"},
		{"parallel+partitions", chordal.Spec{Source: "gnm:10:20", Engine: "parallel", EngineConfig: chordal.EngineConfig{Partitions: 2}}, "conflict"},
		{"partitions+shards", chordal.Spec{Source: "gnm:10:20", EngineConfig: chordal.EngineConfig{Partitions: 2, Shards: 4}}, "conflict"},
		{"sharded without shards", chordal.Spec{Source: "gnm:10:20", Engine: "sharded"}, "shards >= 1"},
		{"partitioned without partitions", chordal.Spec{Source: "gnm:10:20", Engine: "partitioned"}, "partitions >= 1"},
		{"negative shards", chordal.Spec{Source: "gnm:10:20", EngineConfig: chordal.EngineConfig{Shards: -1}}, "must be >= 0"},
		{"bad variant", chordal.Spec{Source: "gnm:10:20", EngineConfig: chordal.EngineConfig{Variant: "fast"}}, "unknown variant"},
		{"bad schedule", chordal.Spec{Source: "gnm:10:20", EngineConfig: chordal.EngineConfig{Schedule: "eventually"}}, "unknown schedule"},
		{"bad relabel", chordal.Spec{Source: "gnm:10:20", Relabel: "shuffle"}, "unknown relabel"},
		{"bad version", chordal.Spec{V: 2, Source: "gnm:10:20"}, "version"},
		{"verify without engine", chordal.Spec{Source: "gnm:10:20", Engine: "none", Verify: true}, "verify requires"},
		{"negative start", chordal.Spec{Source: "gnm:10:20", Engine: "dearing", EngineConfig: chordal.EngineConfig{Start: -1}}, "must be >= 0"},
		{"start off the dearing engine", chordal.Spec{Source: "gnm:10:20", EngineConfig: chordal.EngineConfig{Start: 3}}, "requires the dearing engine"},
		{"unknown order", chordal.Spec{Source: "gnm:10:20", Engine: "elimination", EngineConfig: chordal.EngineConfig{Order: "amd"}}, "unknown order"},
		{"order off the elimination engine", chordal.Spec{Source: "gnm:10:20", EngineConfig: chordal.EngineConfig{Order: "mindeg"}}, "requires the elimination engine"},
		{"bad source", chordal.Spec{Source: "rmat-er"}, "missing scale"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errWant) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errWant)
		}
	}
	// A start vertex on the serial alias is no conflict: the alias is
	// the dearing engine, which takes one.
	n, err := chordal.Spec{Source: "gnm:10:20", Engine: " Serial ", EngineConfig: chordal.EngineConfig{Start: 3}}.Normalize()
	if err != nil || n.Engine != chordal.EngineDearing || n.Start != 3 {
		t.Errorf("serial alias with start 3 normalized to engine %q start %d (err %v), want dearing start 3", n.Engine, n.Start, err)
	}
}

// noopEngine is a registry test double: it extracts nothing.
type noopEngine struct{}

func (noopEngine) Name() string { return "test-noop" }
func (noopEngine) Extract(_ context.Context, g *chordal.Graph, _ chordal.EngineConfig) (*chordal.EngineResult, error) {
	sub, err := chordal.BuildFromEdges(g.NumVertices(), nil, nil)
	return &chordal.EngineResult{Subgraph: sub}, err
}

var registerNoop sync.Once

// TestEngineRegistry covers the pluggable seam: the built-ins are
// registered, the serial alias is not an engine of its own but runs
// dearing byte for byte, duplicates panic, and a custom engine becomes
// reachable through Spec by name alone.
func TestEngineRegistry(t *testing.T) {
	names := chordal.EngineNames()
	for _, want := range []string{"parallel", "partitioned", "sharded", "external", "dearing", "elimination"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in engine %q not registered (have %v)", want, names)
		}
	}
	if _, ok := chordal.LookupEngine("parallel"); !ok {
		t.Fatal("LookupEngine(parallel) missed")
	}
	if _, ok := chordal.LookupEngine("serial"); ok {
		t.Error("serial is registered; it must only be a Normalize alias of dearing")
	}
	alias, err := chordal.Spec{Source: "rmat-g:9:11", Engine: "serial"}.Run()
	if err != nil {
		t.Fatal(err)
	}
	dearing, err := chordal.Spec{Source: "rmat-g:9:11", Engine: chordal.EngineDearing}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alias.Subgraph.Offsets, dearing.Subgraph.Offsets) ||
		!reflect.DeepEqual(alias.Subgraph.Adj, dearing.Subgraph.Adj) {
		t.Error("serial alias subgraph bytes differ from the dearing engine's")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		chordal.RegisterEngine(parallelDup{})
	}()

	registerNoop.Do(func() { chordal.RegisterEngine(noopEngine{}) })
	res, err := chordal.Spec{Source: "gnm:50:100:1", Engine: "test-noop"}.Run()
	if err != nil {
		t.Fatalf("custom engine run: %v", err)
	}
	if res.Subgraph == nil || res.Subgraph.NumEdges() != 0 {
		t.Errorf("custom engine result %+v, want empty subgraph", res.Subgraph)
	}
	if got := mustCanonical(t, chordal.Spec{Source: "gnm:50:100:1", Engine: "test-noop"}); !strings.Contains(got, "engine=test-noop") {
		t.Errorf("custom engine canonical %q", got)
	}
}

// parallelDup collides with the built-in parallel engine's name.
type parallelDup struct{}

func (parallelDup) Name() string { return "parallel" }
func (parallelDup) Extract(context.Context, *chordal.Graph, chordal.EngineConfig) (*chordal.EngineResult, error) {
	return nil, nil
}

// TestSpecEngineConformanceGrid is the cross-engine conformance grid:
// for a matrix of generated graphs (rmat/synth/biogen families at
// several sizes and seeds), every registered built-in engine must
// produce a verified chordal subgraph that is byte-identical across
// worker counts, under one canonical spec identity that survives a
// JSON round trip. This is the contract the caches and the service
// dedup stand on: one canonical key ⇒ one result, whatever the
// machine's width. Run under -race in CI.
func TestSpecEngineConformanceGrid(t *testing.T) {
	sources := []string{
		// rmat sizes × seeds
		"rmat-er:8:3", "rmat-g:8:7", "rmat-g:9:11", "rmat-b:8:5",
		// synthetic families
		"gnm:400:1600:5", "ws:300:6:0.1:9", "geo:300:0.08:11", "ktree:200:4:13",
		// bio suite shape (downscaled for test time)
		"gse5140-crt:64:3", "gse17072-non:64:7",
	}
	engines := []struct {
		name string
		cfg  chordal.EngineConfig
		// maximal marks engines that guarantee a maximal chordal
		// subgraph (serial growth admits every admissible edge; the
		// parallel family has the DESIGN.md §5 gap and elimination is
		// chordal-only).
		maximal bool
	}{
		{chordal.EngineParallel, chordal.EngineConfig{}, false},
		{"serial", chordal.EngineConfig{}, true}, // alias of dearing from start 0
		{chordal.EnginePartitioned, chordal.EngineConfig{Partitions: 4}, false},
		{chordal.EngineSharded, chordal.EngineConfig{Shards: 3}, false},
		{chordal.EngineDearing, chordal.EngineConfig{Start: 3}, true},
		{chordal.EngineElimination, chordal.EngineConfig{Order: chordal.OrderMinDegree}, false},
		{chordal.EngineElimination + "-natural", chordal.EngineConfig{Order: chordal.OrderNatural}, false},
	}
	for _, src := range sources {
		for _, eng := range engines {
			src, eng := src, eng
			t.Run(eng.name+"/"+src, func(t *testing.T) {
				t.Parallel()
				name := strings.TrimSuffix(eng.name, "-natural")
				spec := chordal.Spec{Source: src, Engine: name, EngineConfig: eng.cfg, Verify: true}

				// Same spec at two worker widths: the subgraph bytes and
				// the canonical identity must not move.
				one, three := spec, spec
				one.Workers, three.Workers = 1, 3
				if mustCanonical(t, one) != mustCanonical(t, three) {
					t.Fatal("canonical key depends on worker count")
				}
				r1, err := one.Run()
				if err != nil {
					t.Fatalf("workers=1: %v", err)
				}
				r3, err := three.Run()
				if err != nil {
					t.Fatalf("workers=3: %v", err)
				}
				for _, r := range []*chordal.PipelineResult{r1, r3} {
					if !r.ChordalOK {
						t.Fatal("verify failed: subgraph not chordal")
					}
					if r.Subgraph.NumEdges() == 0 {
						t.Fatal("empty extraction")
					}
					if !isSubgraphOf(r.Subgraph, r.Input) {
						t.Fatal("extraction emitted an edge absent from the input")
					}
					if eng.maximal && (!r.MaximalityAudited || r.ReAddableEdges != 0) {
						t.Fatalf("engine %s guarantees maximality but audit found %d re-addable edges (audited=%t)",
							eng.name, r.ReAddableEdges, r.MaximalityAudited)
					}
				}
				if !reflect.DeepEqual(r1.Subgraph.Offsets, r3.Subgraph.Offsets) ||
					!reflect.DeepEqual(r1.Subgraph.Adj, r3.Subgraph.Adj) {
					t.Fatal("subgraph bytes differ across worker counts")
				}

				// The spec's JSON form is the wire format of the service
				// and the manifest format of the CLI: a decoded copy must
				// keep the same identity and reproduce the same bytes.
				blob, err := json.Marshal(one)
				if err != nil {
					t.Fatal(err)
				}
				var wire chordal.Spec
				if err := json.Unmarshal(blob, &wire); err != nil {
					t.Fatal(err)
				}
				if mustCanonical(t, wire) != mustCanonical(t, one) {
					t.Fatal("canonical key drifted across JSON round trip")
				}
				rw, err := wire.Run()
				if err != nil {
					t.Fatalf("wire copy: %v", err)
				}
				if !reflect.DeepEqual(rw.Subgraph.Adj, r1.Subgraph.Adj) {
					t.Fatal("wire copy produced different subgraph bytes")
				}
			})
		}
	}
}

// isSubgraphOf reports whether every edge of sub is an edge of g (the
// graphs share a vertex set).
func isSubgraphOf(sub, g *chordal.Graph) bool {
	for v := 0; v < sub.NumVertices(); v++ {
		for _, w := range sub.Neighbors(int32(v)) {
			if !g.HasEdge(int32(v), w) {
				return false
			}
		}
	}
	return true
}

// TestObserverEventStream checks the unified stream end to end: stage
// begin/end pairs with timing, iteration events carrying stats, and the
// verify outcome, all through one Observer.
func TestObserverEventStream(t *testing.T) {
	var mu sync.Mutex
	byType := map[chordal.EventType]int{}
	var stages []string
	var verifyEv *chordal.Event
	obs := func(ev chordal.Event) {
		mu.Lock()
		defer mu.Unlock()
		byType[ev.Type]++
		if ev.Type == chordal.EventStageBegin {
			stages = append(stages, ev.Stage)
		}
		if ev.Type == chordal.EventVerify {
			e := ev
			verifyEv = &e
		}
		if ev.Type == chordal.EventIteration {
			// Sharded extraction: every iteration carries its wire
			// statistics, a 1-based index and its shard.
			if ev.IterationEvent == nil {
				t.Error("iteration event without wire stats")
			} else if ev.Index < 1 || ev.Shard == nil {
				t.Errorf("iteration event index %d shard %v, want a 1-based index and a shard", ev.Index, ev.Shard)
			}
		}
	}
	res, err := chordal.Runner{Observer: obs}.Run(context.Background(), chordal.Spec{
		Source:       "rmat-g:9:5",
		EngineConfig: chordal.EngineConfig{Shards: 2},
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChordalOK {
		t.Fatal("run not chordal")
	}
	wantStages := []string{"acquire", "extract", "verify"}
	if !reflect.DeepEqual(stages, wantStages) {
		t.Errorf("stage begins %v, want %v", stages, wantStages)
	}
	if byType[chordal.EventStageEnd] != len(wantStages) {
		t.Errorf("%d stage-end events, want %d", byType[chordal.EventStageEnd], len(wantStages))
	}
	if byType[chordal.EventIteration] < 2 {
		t.Errorf("%d iteration events, want >= 2 (one per shard at minimum)", byType[chordal.EventIteration])
	}
	if verifyEv == nil || verifyEv.Chordal == nil || !*verifyEv.Chordal {
		t.Errorf("verify event %+v, want chordal=true", verifyEv)
	}

	// Iteration events from the sharded engine carry their shard index
	// and marshal it on the wire.
	blob, err := json.Marshal(chordal.Event{})
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `{"type":""}` {
		t.Errorf("zero event marshals as %s; optional fields must be omitted", blob)
	}
}

// TestSpecAuditObservesCancel cancels the run as its verify stage
// begins. The output of the dearing engine is maximal, so the audit
// tests every absent input edge; it observes ctx, and Run returns
// context.Canceled instead of finishing it.
func TestSpecAuditObservesCancel(t *testing.T) {
	spec := chordal.Spec{Source: "rmat-er:10:7", Engine: chordal.EngineDearing, Verify: true}
	res, err := chordal.Runner{}.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MaximalityAudited || res.ReAddableEdges != 0 {
		t.Fatalf("uncanceled run: audited %t, re-addable %d; want a clean audit", res.MaximalityAudited, res.ReAddableEdges)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAtVerify := func(ev chordal.Event) {
		if ev.Type == chordal.EventStageBegin && ev.Stage == "verify" {
			cancel()
		}
	}
	if _, err := (chordal.Runner{Observer: cancelAtVerify}).Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("run canceled at the verify stage returned %v, want context.Canceled", err)
	}
}

// TestEngineEliminationObservesCancel cancels the elimination engine
// 20 ms into its default order, mindeg, on a source where that order
// runs for seconds. The order checks ctx between eliminations, so
// Extract returns ctx.Err() within 100 ms of the cancel.
func TestEngineEliminationObservesCancel(t *testing.T) {
	src, err := chordal.ParseSource("gnm:2048:16384:3")
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	eng, ok := chordal.LookupEngine(chordal.EngineElimination)
	if !ok {
		t.Fatal("elimination engine not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = eng.Extract(ctx, g, chordal.EngineConfig{})
	deadline, _ := ctx.Deadline()
	late := time.Since(deadline)
	if err == nil || !errors.Is(err, ctx.Err()) {
		t.Fatalf("Extract canceled 20 ms in returned %v, want %v", err, ctx.Err())
	}
	if late > 100*time.Millisecond {
		t.Fatalf("Extract returned %v after the cancel, want within 100ms", late)
	}
}
