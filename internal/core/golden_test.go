package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
)

// TestGoldenCounts pins exact chordal edge and iteration counts for
// fixed-seed inputs under the deterministic dataflow schedule. Any
// change to the generators, the queue discipline, or the subset test
// shows up here first; update the constants only after confirming the
// new values are correct (chordality + maximality audits). Extraction
// runs on one worker: with several, the iteration count depends on
// thread timing. Both one-worker paths must reach the constants: the
// sweep that Extract runs and the frontier, its oracle.
func TestGoldenCounts(t *testing.T) {
	type row struct {
		name      string
		edges     int64
		chordal   int
		iterCount int
	}
	var got [2][]row
	add := func(name string, g *graph.Graph) {
		for i, sweep := range []bool{true, false} {
			res, err := extract(context.Background(), g, Options{Workers: 1}, sweep)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = append(got[i], row{name, g.NumEdges(), res.NumChordalEdges(), len(res.Iterations)})
		}
	}

	for _, preset := range []rmat.Preset{rmat.ER, rmat.G, rmat.B} {
		g, err := rmat.Generate(rmat.PresetParams(preset, 10, 20120910))
		if err != nil {
			t.Fatal(err)
		}
		add(preset.String(), g)
	}
	bg, err := biogen.Generate(biogen.PresetParams(biogen.GSE5140UNT, 64, 20120910))
	if err != nil {
		t.Fatal(err)
	}
	add("GSE5140(UNT)/64", bg)

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
	for p, path := range []string{"sweep", "frontier"} {
		if len(got[p]) != len(want) {
			t.Fatalf("%s: row count %d", path, len(got[p]))
		}
		for i := range want {
			if got[p][i] != want[i] {
				t.Errorf("%s: row %d: got %+v, want %+v", path, i, got[p][i], want[i])
			}
		}
	}
}

// TestGoldenSchedule pins the one-worker iteration schedule of a graph
// that needs many iterations: the iteration count and an FNV-64a digest
// of every iteration's (QueueSize, EdgesTested, EdgesAccepted,
// ScanWork), for every schedule × variant and both queue orders. A
// change to the frontier that reorders or drops a queued parent moves
// some iteration's counts, and with them the digest, even when the
// final edge set survives. The Dataflow/Opt row runs twice: through
// the one-worker sweep that Extract selects and through the frontier.
func TestGoldenSchedule(t *testing.T) {
	g := must(synth.WattsStrogatz(2000, 8, 0.1, 3, 1))
	type row struct {
		iterations int
		digest     string
	}
	want := map[string]row{
		"Dataflow/Opt":               {39, "c32506f78649623e"},
		"Dataflow/Opt/unsorted":      {397, "d0241ce42cf368ff"},
		"Dataflow/Unopt":             {39, "405873077c6dc242"},
		"Dataflow/Unopt/unsorted":    {397, "5607c097dc027a74"},
		"Async/Opt":                  {10, "6b38fe02480c7217"},
		"Async/Opt/unsorted":         {12, "69af461e069dffe7"},
		"Async/Unopt":                {10, "f5190de78a4fa1fc"},
		"Async/Unopt/unsorted":       {12, "16ba0a09068ed5bb"},
		"Synchronous/Opt":            {16, "c8effb06af5ef042"},
		"Synchronous/Opt/unsorted":   {16, "c8effb06af5ef042"},
		"Synchronous/Unopt":          {16, "1435beb85a264ede"},
		"Synchronous/Unopt/unsorted": {16, "1435beb85a264ede"},
	}
	for _, s := range allSchedules {
		for _, v := range allVariants {
			for _, unsorted := range []bool{false, true} {
				name := s.String() + "/" + v.String()
				if unsorted {
					name += "/unsorted"
				}
				opts := Options{Workers: 1, Schedule: s, Variant: v, UnsortedQueue: unsorted}
				paths := []bool{true} // Extract's choice
				if name == "Dataflow/Opt" {
					paths = append(paths, false) // the frontier too
				}
				for _, sweep := range paths {
					res, err := extract(context.Background(), g, opts, sweep)
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					for _, it := range res.Iterations {
						fmt.Fprintf(h, "%d,%d,%d,%d;", it.QueueSize, it.EdgesTested, it.EdgesAccepted, it.ScanWork)
					}
					got := row{len(res.Iterations), fmt.Sprintf("%016x", h.Sum64())}
					if got != want[name] {
						t.Errorf("%s (sweep allowed %v): got %+v, want %+v", name, sweep, got, want[name])
					}
				}
			}
		}
	}
}
