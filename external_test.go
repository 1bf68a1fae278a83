package chordal_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"chordal"
)

// This file is the acceptance suite of the out-of-core external engine
// and its satellites: the differential byte-identity grid against the
// in-memory sharded engine, the no-acquire source path, the canonical
// key pins for the new spec surface, and the bounded deferred queue.

// externalGridSources is the zoo of the byte-identity grid — the same
// eight structural families the engine bake-off uses.
var externalGridSources = []string{
	"rmat-er:8:3", "rmat-g:9:11", "rmat-b:8:5",
	"gnm:400:1600:5", "ws:300:6:0.1:9", "geo:300:0.08:11", "ktree:200:4:13",
	"gse5140-crt:64:3",
}

// TestEngineExternalDifferentialGrid is the tentpole's acceptance
// proof, library-level half: on every zoo source and shard count, the
// external engine's subgraph is byte-identical to the sharded engine's
// at equal partitions, both verify chordal, and the parallel engine on
// the same input verifies chordal too (the cross-engine sanity leg).
// Runs under -race in CI.
func TestEngineExternalDifferentialGrid(t *testing.T) {
	for _, src := range externalGridSources {
		src := src
		t.Run(src, func(t *testing.T) {
			t.Parallel()
			acq, err := chordal.Spec{Source: src, Engine: chordal.EngineNone}.Run()
			if err != nil {
				t.Fatal(err)
			}
			g := acq.Input

			par, err := chordal.Runner{Input: g}.Run(context.Background(),
				chordal.Spec{Engine: chordal.EngineParallel, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !par.ChordalOK {
				t.Fatal("parallel subgraph failed verification")
			}

			for _, shards := range []int{1, 2, 3, 5} {
				for _, resident := range []int{0, 1, 3} {
					ext, err := chordal.Runner{Input: g}.Run(context.Background(), chordal.Spec{
						Engine:       chordal.EngineExternal,
						EngineConfig: chordal.EngineConfig{Shards: shards, ResidentShards: resident},
						Verify:       true,
					})
					if err != nil {
						t.Fatalf("external shards=%d resident=%d: %v", shards, resident, err)
					}
					shd, err := chordal.Runner{Input: g}.Run(context.Background(), chordal.Spec{
						Engine:       chordal.EngineSharded,
						EngineConfig: chordal.EngineConfig{Shards: shards},
						Verify:       true,
					})
					if err != nil {
						t.Fatalf("sharded shards=%d: %v", shards, err)
					}
					if !ext.ChordalOK || !shd.ChordalOK {
						t.Fatalf("shards=%d: verification failed (external=%t sharded=%t)",
							shards, ext.ChordalOK, shd.ChordalOK)
					}
					if !sameGraph(ext.Subgraph, shd.Subgraph) {
						t.Fatalf("shards=%d resident=%d: external subgraph differs from sharded (%d vs %d edges)",
							shards, resident, ext.Subgraph.NumEdges(), shd.Subgraph.NumEdges())
					}
					if ext.External == nil {
						t.Fatal("external run missing ExternalSummary")
					}
					if ext.Shard == nil || ext.Shard.EdgeCut != shd.Shard.EdgeCut {
						t.Fatalf("shards=%d: edge cut mismatch external=%v sharded=%v", shards, ext.Shard, shd.Shard)
					}
					if shards > 1 && ext.Shard.EdgeCut == 0 {
						t.Fatalf("shards=%d: edge cut 0 on a multi-shard run", shards)
					}
				}
			}
		})
	}
}

// TestEngineExternalSourcePath exercises the true out-of-core path on
// every zoo source at 2, 4 and 8 shards: a .bin file source with the
// external engine skips the acquire stage (Input stays nil, the file
// is never loaded whole), fills InputStats from the file, and still
// produces the sharded engine's exact edges.
func TestEngineExternalSourcePath(t *testing.T) {
	dir := t.TempDir()
	for i, src := range externalGridSources {
		bin := filepath.Join(dir, fmt.Sprintf("input%d.bin", i))
		acq, err := chordal.Spec{Source: src, Engine: chordal.EngineNone, Output: bin}.Run()
		if err != nil {
			t.Fatal(err)
		}
		g := acq.Input
		for _, shards := range []int{2, 4, 8} {
			spec := chordal.Spec{
				Source:       bin,
				Engine:       chordal.EngineExternal,
				EngineConfig: chordal.EngineConfig{Shards: shards},
				Verify:       true,
			}
			res, err := spec.Run()
			if err != nil {
				t.Fatalf("%s shards=%d: %v", src, shards, err)
			}
			if res.Input != nil {
				t.Fatalf("%s shards=%d: out-of-core run materialized the input graph", src, shards)
			}
			if res.InputStats != chordal.ComputeStats(g) {
				t.Fatalf("%s shards=%d: InputStats %+v differ from the in-memory stats %+v",
					src, shards, res.InputStats, chordal.ComputeStats(g))
			}
			if res.External == nil || !res.ChordalOK || res.Shard == nil || !res.Shard.Chordal {
				t.Fatalf("%s shards=%d: out-of-core run incomplete: external=%v chordalOK=%t",
					src, shards, res.External, res.ChordalOK)
			}
			if res.External.BytesRead == 0 || res.External.PeakResidentBytes <= 0 {
				t.Fatalf("%s shards=%d: IO stats not accounted: %+v", src, shards, res.External)
			}

			shd, err := chordal.Runner{Input: g}.Run(context.Background(), chordal.Spec{
				Engine:       chordal.EngineSharded,
				EngineConfig: chordal.EngineConfig{Shards: shards},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(res.Subgraph, shd.Subgraph) {
				t.Fatalf("%s shards=%d: out-of-core subgraph differs from sharded (%d vs %d edges)",
					src, shards, res.Subgraph.NumEdges(), shd.Subgraph.NumEdges())
			}

			// The run's report must carry the IO summary and the
			// file-derived input stats.
			rep, err := chordal.Report(spec, res)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Extraction == nil || rep.Extraction.External == nil || rep.Input.Edges != g.NumEdges() {
				t.Fatalf("%s shards=%d: report missing external summary or input stats: %+v",
					src, shards, rep.Extraction)
			}
		}
	}
}

// TestEngineExternalSpecSurface pins the new spec surface: the
// canonical key of external specs (fixed tokens only — ResidentShards
// must not split identities), the stream-scoped maxdeferred token, and
// the validation rules.
func TestEngineExternalSpecSurface(t *testing.T) {
	want := "v1 engine=external relabel=none variant=auto schedule=dataflow repair=false stitch=false partitions=0 shards=4 stitchonly=false verify=true src=gnm:400:1600:5"
	got := mustCanonical(t, chordal.Spec{
		Source:       "gnm:400:1600:5",
		Engine:       chordal.EngineExternal,
		EngineConfig: chordal.EngineConfig{Shards: 4},
		Verify:       true,
	})
	if got != want {
		t.Errorf("external canonical:\n got %q\nwant %q", got, want)
	}
	// ResidentShards is a residency knob, not identity.
	withResident := mustCanonical(t, chordal.Spec{
		Source:       "gnm:400:1600:5",
		Engine:       chordal.EngineExternal,
		EngineConfig: chordal.EngineConfig{Shards: 4, ResidentShards: 7},
		Verify:       true,
	})
	if withResident != got {
		t.Errorf("residentShards split the canonical key: %q vs %q", withResident, got)
	}
	// MaxDeferred is identity — but only in stream mode.
	streamKey := mustCanonical(t, chordal.Spec{
		Mode:         chordal.ModeStream,
		Engine:       chordal.EngineParallel,
		EngineConfig: chordal.EngineConfig{MaxDeferred: 64},
	})
	if !strings.Contains(streamKey, " mode=stream maxdeferred=64 ") {
		t.Errorf("stream canonical missing maxdeferred token: %q", streamKey)
	}
	unbounded := mustCanonical(t, chordal.Spec{Mode: chordal.ModeStream, Engine: chordal.EngineParallel})
	if strings.Contains(unbounded, "maxdeferred") {
		t.Errorf("unbounded stream key grew a maxdeferred token: %q", unbounded)
	}

	for name, bad := range map[string]chordal.Spec{
		"external needs shards": {Source: "gnm:100:300:1", Engine: chordal.EngineExternal},
		"external vs relabel": {Source: "gnm:100:300:1", Relabel: "bfs",
			Engine: chordal.EngineExternal, EngineConfig: chordal.EngineConfig{Shards: 2}},
		"shards vs parallel engine": {Source: "gnm:100:300:1", Engine: chordal.EngineParallel,
			EngineConfig: chordal.EngineConfig{Shards: 2}},
		"maxDeferred outside stream": {Source: "gnm:100:300:1",
			EngineConfig: chordal.EngineConfig{MaxDeferred: 8}},
		"negative maxDeferred": {Mode: chordal.ModeStream, Engine: chordal.EngineParallel,
			EngineConfig: chordal.EngineConfig{MaxDeferred: -1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid spec validated", name)
		}
	}

	// external in stream mode: stream sessions run only the parallel
	// engine.
	streamExt := chordal.Spec{Mode: chordal.ModeStream, Engine: chordal.EngineExternal,
		EngineConfig: chordal.EngineConfig{Shards: 2}}
	if err := streamExt.Validate(); err == nil {
		t.Error("external stream spec validated")
	}
}

// TestStreamMaxDeferredBoundedHostile is the satellite regression: a
// hostile stream of all-distinct inadmissible edges (the closing edge
// of disjoint 4-cycles — connected endpoints with no common neighbor)
// must not grow the deferred queue past the bound; the excess is
// dropped with overflow events and memory stays flat. Runs under -race
// in CI via the TestStream pattern.
func TestStreamMaxDeferredBoundedHostile(t *testing.T) {
	const bound, cycles = 8, 200
	s, err := chordal.OpenStream(context.Background(), chordal.Spec{
		Mode:         chordal.ModeStream,
		Engine:       chordal.EngineParallel,
		EngineConfig: chordal.EngineConfig{MaxDeferred: bound},
	}, chordal.StreamConfig{Vertices: 4 * cycles})
	if err != nil {
		t.Fatal(err)
	}
	overflow := 0
	for k := int32(0); k < cycles; k++ {
		a, b, c, d := 4*k, 4*k+1, 4*k+2, 4*k+3
		for _, e := range [][2]int32{{a, b}, {b, c}, {c, d}} {
			if _, err := s.Push(context.Background(), e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		delta, err := s.Push(context.Background(), d, a)
		if err != nil {
			t.Fatal(err)
		}
		if delta.Accepted {
			t.Fatalf("cycle %d: closing edge accepted", k)
		}
		switch delta.Reason {
		case string(chordal.AdmitDeferred):
		case string(chordal.AdmitOverflow):
			overflow++
		default:
			t.Fatalf("cycle %d: unexpected reason %q", k, delta.Reason)
		}
		if st := s.Stats(); st.Deferred > bound {
			t.Fatalf("cycle %d: deferred queue %d exceeds bound %d", k, st.Deferred, bound)
		}
	}
	st := s.Stats()
	if st.Deferred != bound || st.Overflowed != cycles-bound || overflow != cycles-bound {
		t.Fatalf("stats %+v, want deferred=%d overflowed=%d (saw %d overflow deltas)",
			st, bound, cycles-bound, overflow)
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
