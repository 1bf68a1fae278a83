package chordal_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"chordal"
)

// TestRootSurfaceNoPanic calls every exported function of the root
// package with the arguments a caller can get wrong: empty graphs, zero
// and negative sizes, ids at or past the vertex count, orders of the
// wrong length and graphs on different vertex sets. Each call must
// return an error or a result; none may panic. wantErr pins which of
// the two the call returns. A call whose result is a bool or a value
// turns a wrong result into an error, so wantErr is false for it.
//
// RegisterEngine is the one exception, by design: an empty or duplicate
// engine name is a programmer error at init time, and it panics as
// database/sql.Register does (TestEngineRegistry pins that).
func TestRootSurfaceNoPanic(t *testing.T) {
	ctx := context.Background()
	empty := must(chordal.BuildFromEdges(0, nil, nil))
	p3 := must(chordal.BuildFromEdges(3, []int32{0, 1}, []int32{1, 2}))
	c4 := must(chordal.BuildFromEdges(4, []int32{0, 1, 2, 3}, []int32{1, 2, 3, 0}))
	dir := t.TempDir()

	build := func(n int, edges ...[2]int32) func() error {
		return func() error {
			b := chordal.NewBuilder(n)
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
			}
			_, err := b.Build()
			return err
		}
	}
	fromEdges := func(n int, us, vs []int32) func() error {
		return func() error { _, err := chordal.BuildFromEdges(n, us, vs); return err }
	}
	load := func(spec string) func() error {
		return func() error {
			src, err := chordal.ParseSource(spec)
			if err != nil {
				return err
			}
			_, err = src.Load()
			return err
		}
	}
	fill := func(g *chordal.Graph, order []int32) func() error {
		return func() error { _, err := chordal.Fill(g, order); return err }
	}
	is := func(got, want bool) error {
		if got != want {
			return fmt.Errorf("got %v, want %v", got, want)
		}
		return nil
	}
	push := func(u, v int32) func() error {
		return func() error {
			s, err := chordal.OpenStream(ctx, chordal.Spec{Mode: chordal.ModeStream}, chordal.StreamConfig{Vertices: 4, MaxVertices: 8})
			if err != nil {
				return err
			}
			d, err := s.Push(ctx, u, v)
			if err != nil {
				return err
			}
			// The delta is ruled invalid; the session stays usable.
			if d.Reason != string(chordal.AdmitInvalid) {
				return fmt.Errorf("delta (%d, %d) ruled %q", u, v, d.Reason)
			}
			_, err = s.Close(ctx)
			return err
		}
	}

	for _, c := range []struct {
		name    string
		wantErr bool
		call    func() error
	}{
		// Graphs from a Builder or from endpoint slices.
		{"NewBuilder(-1).Build", true, build(-1)},
		{"NewBuilder(0).Build", false, build(0)},
		{"Builder id = n", true, build(2, [2]int32{0, 2})},
		{"Builder negative id", true, build(2, [2]int32{-1, 0})},
		{"Builder self loop past n", true, build(2, [2]int32{5, 5})},
		{"Builder self loop", false, build(2, [2]int32{1, 1})},
		{"BuildFromEdges(-1)", true, fromEdges(-1, nil, nil)},
		{"BuildFromEdges(0)", false, fromEdges(0, nil, nil)},
		{"BuildFromEdges id past n", true, fromEdges(2, []int32{5}, []int32{0})},
		{"BuildFromEdges slices differ", true, fromEdges(2, []int32{0, 1}, []int32{1})},
		{"BuildFromEdges n past int32", true, fromEdges(math.MaxInt32+1, nil, nil)},

		// Graphs from a source spec: each generator's bounds, and zero
		// sizes inside them.
		{"ws 2k >= n", true, load("ws:10:20:0.1:1")},
		{"ktree k >= n", true, load("ktree:10:20:1")},
		{"gnm m > n(n-1)/2", true, load("gnm:10:1000:1")},
		{"geo radius < 0", true, load("geo:100:-1:1")},
		{"ws zero", true, load("ws:0:0:0")},
		{"ktree zero", true, load("ktree:0:0")},
		{"gnm negative n", true, load("gnm:-1:0")},
		{"geo negative n", true, load("geo:-5:0.5")},
		{"rmat scale 0", true, load("rmat-er:0")},
		{"rmat scale 31", true, load("rmat-g:31")},
		{"rmat edgefactor 0", true, load("rmat-b:4:1:0")},
		{"gnm empty", false, load("gnm:0:0")},
		{"gnm one vertex", false, load("gnm:1:0")},
		{"geo empty", false, load("geo:0:0.5")},
		{"missing file", true, load(filepath.Join(dir, "absent.bin"))},
		{"empty spec", true, load("")},
		{"upload identity", true, load(chordal.UploadSource("bin", [32]byte{}))},
		{"zero Source", true, func() error { _, err := chordal.Source{}.Load(); return err }},

		// The toolkit on empty, non-chordal and mismatched graphs.
		{"Extract empty", false, func() error { _, err := chordal.Extract(empty, chordal.Options{}); return err }},
		{"Extract negative workers", false, func() error { _, err := chordal.Extract(p3, chordal.Options{Workers: -1}); return err }},
		{"IsChordal empty", false, func() error { return is(chordal.IsChordal(empty), true) }},
		{"IsChordal C4", false, func() error { return is(chordal.IsChordal(c4), false) }},
		{"IsMaximalChordal sub smaller", false, func() error { return is(chordal.IsMaximalChordal(p3, empty), false) }},
		{"IsMaximalChordal sub larger", false, func() error { return is(chordal.IsMaximalChordal(empty, p3), false) }},
		{"IsMaximalChordal empty", false, func() error { return is(chordal.IsMaximalChordal(empty, empty), true) }},
		{"PerfectEliminationOrdering empty", false, func() error { _, err := chordal.PerfectEliminationOrdering(empty); return err }},
		{"PerfectEliminationOrdering C4", true, func() error { _, err := chordal.PerfectEliminationOrdering(c4); return err }},
		{"MaxClique empty", false, func() error { _, err := chordal.MaxClique(empty); return err }},
		{"MaxClique C4", true, func() error { _, err := chordal.MaxClique(c4); return err }},
		{"Coloring empty", false, func() error { _, _, err := chordal.Coloring(empty); return err }},
		{"Coloring C4", true, func() error { _, _, err := chordal.Coloring(c4); return err }},
		{"Decompose empty", false, func() error { _, err := chordal.Decompose(empty); return err }},
		{"Decompose C4", true, func() error { _, err := chordal.Decompose(c4); return err }},
		{"ComputeStats empty", false, func() error { return is(chordal.ComputeStats(empty).Vertices == 0, true) }},
		{"SaveGraph empty", false, func() error { return chordal.SaveGraph(filepath.Join(dir, "empty.bin"), empty) }},
		{"SaveGraph missing dir", true, func() error { return chordal.SaveGraph(filepath.Join(dir, "no", "g.bin"), p3) }},
		{"Fill empty", false, fill(empty, nil)},
		{"Fill short order", true, fill(p3, []int32{0, 1})},
		{"Fill long order", true, fill(p3, []int32{0, 1, 2, 0})},
		{"Fill id = n", true, fill(p3, []int32{0, 1, 3})},
		{"Fill negative id", true, fill(p3, []int32{0, -1, 2})},
		{"Fill repeated id", true, fill(p3, []int32{0, 0, 1})},
		{"MinDegreeOrder empty", false, func() error { return is(len(chordal.MinDegreeOrder(empty)) == 0, true) }},
		{"ChordalGuidedOrder empty", false, func() error { _, err := chordal.ChordalGuidedOrder(empty); return err }},

		// Specs, runs and reports.
		{"Spec without source", true, func() error { _, err := chordal.Spec{}.Run(); return err }},
		{"Spec with bad generator", true, func() error { _, err := chordal.Spec{Source: "ws:10:20:0.1"}.Run(); return err }},
		{"Spec on empty graph", false, func() error {
			s := chordal.Spec{Source: "gnm:0:0", Verify: true}
			res, err := s.Run()
			if err != nil {
				return err
			}
			_, err = chordal.Report(s, res)
			return err
		}},
		{"Runner on empty input", false, func() error {
			_, err := chordal.Runner{Input: empty}.Run(ctx, chordal.Spec{Verify: true})
			return err
		}},
		{"Batch empty", false, func() error { _, err := chordal.Batch(ctx, nil, chordal.BatchOptions{}); return err }},
		{"Batch bad item, negative widths", false, func() error {
			res, err := chordal.Batch(ctx, []chordal.Spec{{Source: "ktree:3:3"}}, chordal.BatchOptions{Workers: -1, Concurrency: -1})
			if err != nil {
				return err
			}
			return is(res.Failed() == 1, true)
		}},
		{"LookupEngine empty name", false, func() error { _, ok := chordal.LookupEngine(""); return is(ok, false) }},
		{"EngineNames", false, func() error { return is(len(chordal.EngineNames()) > 0, true) }},
		{"ParseVariant bogus", true, func() error { _, err := chordal.ParseVariant("bogus"); return err }},
		{"ParseSchedule bogus", true, func() error { _, err := chordal.ParseSchedule("bogus"); return err }},
		{"ParseRelabel bogus", true, func() error { _, err := chordal.ParseRelabel("bogus"); return err }},

		// Streams.
		{"OpenStream negative vertices", true, func() error {
			_, err := chordal.OpenStream(ctx, chordal.Spec{Mode: chordal.ModeStream}, chordal.StreamConfig{Vertices: -1})
			return err
		}},
		{"OpenStream batch spec", true, func() error { _, err := chordal.OpenStream(ctx, chordal.Spec{}, chordal.StreamConfig{}); return err }},
		{"Push negative id", false, push(-1, 2)},
		{"Push id past cap", false, push(0, 8)},
		{"Push self loop", false, push(3, 3)},
		{"ParseEdgeDelta empty", true, func() error { _, err := chordal.ParseEdgeDelta(""); return err }},
		{"ParseEdgeDelta one id", true, func() error { _, err := chordal.ParseEdgeDelta("1"); return err }},
		{"ParseEdgeDelta past int32", true, func() error { _, err := chordal.ParseEdgeDelta("0 4294967296"); return err }},
		{"ParseEdgeDelta bad JSON", true, func() error { _, err := chordal.ParseEdgeDelta(`{"u":`); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := c.call(); (err != nil) != c.wantErr {
				if err == nil {
					err = errors.New("no error")
				}
				t.Fatalf("%v; want error: %v", err, c.wantErr)
			}
		})
	}
}
