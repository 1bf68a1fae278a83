package chordal_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
)

func TestParseSourceGenerators(t *testing.T) {
	cases := []struct {
		spec     string
		vertices int
	}{
		{"rmat-er:8", 256},
		{"rmat-g:8:7", 256},
		{"rmat-b:8:7:4", 256},
		{"gnm:100:200:3", 100},
		{"ws:64:3:0.1:5", 64},
		{"geo:200:0.1:9", 200},
		{"ktree:50:3:2", 50},
		{"gse5140-unt:64:5", 45020 / 64},
	}
	for _, c := range cases {
		src, err := chordal.ParseSource(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		g, err := src.Load()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.NumVertices() != c.vertices {
			t.Fatalf("%s: V=%d, want %d", c.spec, g.NumVertices(), c.vertices)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
	}
}

func TestParseSourceErrors(t *testing.T) {
	for _, spec := range []string{"rmat-er", "rmat-er:x", "gnm:100", "ws:64:3", "geo:200", "ktree:50", "rmat-g:8:badseed"} {
		src, err := chordal.ParseSource(spec)
		if err == nil {
			// Some errors only surface at load time for specs parsed as
			// file paths; those must fail there instead.
			if _, err := src.Load(); err == nil {
				t.Fatalf("spec %q accepted", spec)
			}
		}
	}
}

// TestParseSourceGeneratorBounds pins that ParseSource refuses a
// generator spec outside its family's bounds (see SourceSpecs) with an
// error, where the generator itself would panic on load, and that the
// bounds themselves parse and load.
func TestParseSourceGeneratorBounds(t *testing.T) {
	for _, spec := range []string{
		"ws:10:20:0.1", "ktree:10:20", "ktree:5:0", "geo:100:-1", "gnm:10:1000", "ws:100:2:2",
		"ws:10:5:0.1", "ws:10:0:0.1", "ws:10:4:-0.1", "ktree:24:24", "geo:10:0", "geo:10:1.5", "gnm:10:46",
		"ws:10:4:NaN", "ws:10:4:Inf", "geo:10:-Inf", "geo:10:nan",
		"rmat-er:31", "rmat-g:0", "rmat-b:10:42:0",
	} {
		if src, err := chordal.ParseSource(spec); err == nil {
			t.Errorf("ParseSource(%q) = %q, want an error", spec, src.Canonical())
		}
	}
	for _, c := range []struct {
		spec     string
		vertices int
	}{
		{"ws:10:4:0.1", 10},
		{"ws:10:4:0", 10},
		{"ws:10:4:1", 10},
		{"ktree:25:24", 25},
		{"geo:10:1", 10},
		{"gnm:10:45", 10},
		{"rmat-er:1", 2},
		{"rmat-b:1:42:1", 2},
	} {
		src, err := chordal.ParseSource(c.spec)
		if err != nil {
			t.Errorf("ParseSource(%q): %v", c.spec, err)
			continue
		}
		if g, err := src.Load(); err != nil || g.NumVertices() != c.vertices {
			t.Errorf("%s: load err %v, want a graph on %d vertices", c.spec, err, c.vertices)
		}
	}
}

func TestParseSourceFilePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g, err := rmat.Generate(rmat.PresetParams(rmat.G, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := chordal.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	src, err := chordal.ParseSource(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("reloaded E=%d, want %d", back.NumEdges(), g.NumEdges())
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sub.bin")
	res, err := chordal.Spec{
		Source:       "rmat-g:9:5",
		Relabel:      "bfs",
		EngineConfig: chordal.EngineConfig{Repair: true},
		Verify:       true,
		Output:       out,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Input == nil || res.Subgraph == nil || res.Extraction == nil {
		t.Fatal("missing pipeline outputs")
	}
	if !res.Verified || !res.ChordalOK {
		t.Fatal("verification did not pass")
	}
	if !res.MaximalityAudited || res.ReAddableEdges != 0 {
		t.Fatalf("repair + audit left %d re-addable edges", res.ReAddableEdges)
	}
	if len(res.Timings) != 5 {
		t.Fatalf("expected 5 stage timings, got %v", res.Timings)
	}
	// The written artifact round-trips.
	back, err := graph.LoadFileWorkers(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != res.Subgraph.NumEdges() {
		t.Fatalf("written subgraph E=%d, want %d", back.NumEdges(), res.Subgraph.NumEdges())
	}
	// BFS relabeling of a connected input keeps the extraction connected
	// only per component; at minimum the subgraph spans the vertex set.
	if back.NumVertices() != res.Input.NumVertices() {
		t.Fatalf("vertex count changed: %d vs %d", back.NumVertices(), res.Input.NumVertices())
	}
}

func TestPipelineBaselines(t *testing.T) {
	serial, err := chordal.Spec{Source: "rmat-er:8:3", Engine: chordal.EngineDearing}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if serial.Subgraph == nil || serial.Extraction != nil {
		t.Fatal("serial baseline should produce a subgraph without an Extraction result")
	}
	if serial.Dearing == nil || serial.Dearing.Start != 0 {
		t.Fatalf("serial baseline summary %+v, want start vertex 0", serial.Dearing)
	}
	if !chordal.IsChordal(serial.Subgraph) {
		t.Fatal("serial baseline output not chordal")
	}

	parts, err := chordal.Spec{
		Source:       "rmat-er:8:3",
		EngineConfig: chordal.EngineConfig{Partitions: 4},
		Verify:       true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if parts.Partition == nil || parts.Partition.Parts != 4 {
		t.Fatalf("partition summary %+v", parts.Partition)
	}
	if !parts.ChordalOK {
		t.Fatal("partitioned baseline output not chordal")
	}
}

func TestPipelineSharded(t *testing.T) {
	var mu sync.Mutex
	iterEvents := 0
	obs := func(ev chordal.Event) {
		if ev.Type != chordal.EventIteration {
			return
		}
		if ev.Shard == nil {
			t.Error("iteration event without a shard index")
			return
		}
		// Invoked concurrently across shards; guard the counter.
		mu.Lock()
		iterEvents++
		mu.Unlock()
		if *ev.Shard < 0 || *ev.Shard >= 4 {
			t.Errorf("shard index %d out of range", *ev.Shard)
		}
	}
	res, err := chordal.Runner{Observer: obs}.Run(context.Background(), chordal.Spec{
		Source:       "rmat-g:10:7",
		EngineConfig: chordal.EngineConfig{Shards: 4},
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if iterEvents == 0 {
		t.Error("no shard iteration callbacks")
	}
	if res.Shard == nil || res.Shard.Shards != 4 {
		t.Fatalf("shard summary %+v, want 4 shards", res.Shard)
	}
	if !res.Shard.Chordal || !res.ChordalOK {
		t.Fatal("sharded pipeline output not chordal")
	}
	if len(res.Shard.PerShardIterations) != 4 || len(res.Shard.PerShardEdges) != 4 {
		t.Fatalf("per-shard series %+v", res.Shard)
	}
	if res.Extraction != nil {
		t.Fatal("sharded run must not report a whole-graph Extraction result")
	}
	got := int(res.Subgraph.NumEdges())
	want := res.Shard.InteriorEdges + res.Shard.StitchedEdges + res.Shard.BorderAdmitted
	if got != want {
		t.Fatalf("edge accounting: subgraph %d, counters %d", got, want)
	}

	// One shard reproduces the whole-graph kernel plus spanning stitch.
	one, err := chordal.Spec{
		Source:       "rmat-g:10:7",
		EngineConfig: chordal.EngineConfig{Shards: 1, ShardStitchOnly: true},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := chordal.Spec{Source: "rmat-g:10:7", EngineConfig: chordal.EngineConfig{Stitch: true}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if one.Subgraph.NumEdges() != ref.Subgraph.NumEdges() {
		t.Fatalf("shards=1 kept %d edges, whole-graph+stitch kept %d",
			one.Subgraph.NumEdges(), ref.Subgraph.NumEdges())
	}
}

func TestPipelineVerifyRequiresExtraction(t *testing.T) {
	if _, err := (chordal.Spec{Source: "rmat-er:8", Engine: chordal.EngineNone, Verify: true}).Run(); err == nil {
		t.Fatal("verify without extraction accepted")
	}
}

func TestPipelineLoadOnly(t *testing.T) {
	res, err := chordal.Spec{Source: "ktree:40:3:1", Engine: chordal.EngineNone}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph != nil || res.Extraction != nil || res.Workers != 0 {
		t.Fatal("no extraction requested but an engine result is present")
	}
	if res.InputStats.Vertices != 40 {
		t.Fatalf("stats %+v", res.InputStats)
	}
}

func TestSourceCanonical(t *testing.T) {
	cases := []struct {
		spec, canon string
		generated   bool
	}{
		{"rmat-er:14", "rmat-er:14:42:8", true},
		{"RMAT-ER:14:42:8", "rmat-er:14:42:8", true},
		{" rmat-er:14 ", "rmat-er:14:42:8", true},
		{"gnm:100:200", "gnm:100:200:42", true},
		{"ws:64:3:0.1", "ws:64:3:0.1:42", true},
		{"geo:200:0.25:9", "geo:200:0.25:9", true},
		{"ktree:50:3", "ktree:50:3:42", true},
		{"gse5140-crt", "gse5140-crt:8:42", true},
		// A downscale below 1 loads as 1, so it shares downscale 1's key.
		{"gse5140-crt:0:1", "gse5140-crt:1:1", true},
		{"gse5140-crt:-5:1", "gse5140-crt:1:1", true},
		{"gse5140-crt:1:1", "gse5140-crt:1:1", true},
		{"some/dir//graph.bin", "some/dir/graph.bin", false},
	}
	for _, c := range cases {
		src, err := chordal.ParseSource(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got := src.Canonical(); got != c.canon {
			t.Errorf("Canonical(%q) = %q, want %q", c.spec, got, c.canon)
		}
		if got := src.Generated(); got != c.generated {
			t.Errorf("Generated(%q) = %t, want %t", c.spec, got, c.generated)
		}
	}
}

func TestParseRelabel(t *testing.T) {
	for s, want := range map[string]chordal.RelabelMode{
		"": chordal.RelabelNone, "none": chordal.RelabelNone,
		"BFS": chordal.RelabelBFS, "degree": chordal.RelabelDegree,
	} {
		got, err := chordal.ParseRelabel(s)
		if err != nil || got != want {
			t.Errorf("ParseRelabel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := chordal.ParseRelabel("shuffle"); err == nil {
		t.Error("ParseRelabel accepted unknown mode")
	}
}

func TestRunContextCancellation(t *testing.T) {
	// Pre-canceled context: the pipeline stops at the first boundary.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := chordal.Spec{Source: "rmat-er:10:7"}.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunContext error = %v, want context.Canceled", err)
	}

	// Cancel from inside the extract loop: the first iteration callback
	// pulls the plug and extraction must stop at the next boundary with
	// ctx.Err(), not run to completion.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	iterations := 0
	cancelAtIteration := func(ev chordal.Event) {
		if ev.Type == chordal.EventIteration {
			iterations++
			cancel2()
		}
	}
	_, err = chordal.Runner{Observer: cancelAtIteration}.Run(ctx2, chordal.Spec{
		Source:       "rmat-er:12:7",
		EngineConfig: chordal.EngineConfig{Schedule: "sync"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel error = %v, want context.Canceled", err)
	}
	if iterations != 1 {
		t.Errorf("extraction ran %d iterations after cancel, want exactly 1", iterations)
	}

	// Sanity: the same pipeline uncanceled completes.
	res, err := chordal.Spec{Source: "rmat-er:10:7", Verify: true}.Run()
	if err != nil || !res.ChordalOK {
		t.Fatalf("uncancelled run: res=%v err=%v", res, err)
	}
}

func TestPipelineInputInjection(t *testing.T) {
	g := must(synth.GNM(500, 1500, 3))
	res, err := chordal.Runner{Input: g}.Run(context.Background(), chordal.Spec{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Input != g {
		t.Error("pipeline did not use the injected input graph")
	}
	if !res.ChordalOK {
		t.Error("extraction on injected input not chordal")
	}
	for _, st := range res.Timings {
		if st.Stage == "acquire" {
			t.Error("acquire stage ran despite injected input")
		}
	}
}

func TestPipelineStageCallback(t *testing.T) {
	var stages []string
	out := filepath.Join(t.TempDir(), "sub.bin")
	obs := func(ev chordal.Event) {
		if ev.Type == chordal.EventStageBegin {
			stages = append(stages, ev.Stage)
		}
	}
	_, err := chordal.Runner{Observer: obs}.Run(context.Background(), chordal.Spec{
		Source:  "gnm:300:900:5",
		Relabel: "bfs",
		Verify:  true,
		Output:  out,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"acquire", "relabel", "extract", "verify", "write"}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages = %v, want %v", stages, want)
		}
	}
}
