package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
)

// traceEvent is one OnEvent call, or with parent and child -1 the
// OnIteration call that ends an iteration.
type traceEvent struct {
	iteration     int
	parent, child int32
	accepted      bool
}

// traceRun is everything a one-worker run shows a caller: the result,
// its iterations without their durations, the OnEvent and OnIteration
// calls in order, and the statistics OnIteration received.
type traceRun struct {
	res        *Result
	iterations []IterationStats
	events     []traceEvent
	hooks      []IterationStats
}

// runTraced extracts g at one worker under the default configuration,
// through the sweep when sweep is true and through the frontier
// otherwise, recording every callback.
func runTraced(t testing.TB, g *graph.Graph, sweep bool) traceRun {
	t.Helper()
	var r traceRun
	opts := Options{
		Workers: 1,
		OnEvent: func(iteration int, parent, child int32, accepted bool) {
			r.events = append(r.events, traceEvent{iteration, parent, child, accepted})
		},
		OnIteration: func(it IterationStats) {
			r.events = append(r.events, traceEvent{it.Index, -1, -1, false})
			it.Duration = 0
			r.hooks = append(r.hooks, it)
		},
	}
	res, err := extract(context.Background(), g, opts, sweep)
	if err != nil {
		t.Fatal(err)
	}
	r.res = res
	for _, it := range res.Iterations {
		it.Duration = 0
		r.iterations = append(r.iterations, it)
	}
	return r
}

// requireSameTrace fails unless the sweep and the one-worker frontier
// agree on g: the edge list, every chordal set, every iteration's
// statistics apart from Duration, and the sequence of OnEvent and
// OnIteration calls.
func requireSameTrace(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	s, f := runTraced(t, g, true), runTraced(t, g, false)
	if !slices.Equal(s.res.Edges, f.res.Edges) {
		t.Fatalf("%s: sweep kept %d edges, frontier %d, or they differ", name, len(s.res.Edges), len(f.res.Edges))
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if !slices.Equal(s.res.ChordalNeighbors(v), f.res.ChordalNeighbors(v)) {
			t.Fatalf("%s: C[%d] = %v in the sweep, %v in the frontier", name, v, s.res.ChordalNeighbors(v), f.res.ChordalNeighbors(v))
		}
	}
	if !slices.Equal(s.iterations, f.iterations) {
		for i := 0; i < min(len(s.iterations), len(f.iterations)); i++ {
			if s.iterations[i] != f.iterations[i] {
				t.Fatalf("%s: iteration %d: sweep %+v, frontier %+v (of %d and %d iterations)", name, i+1, s.iterations[i], f.iterations[i], len(s.iterations), len(f.iterations))
			}
		}
		t.Fatalf("%s: sweep ran %d iterations, frontier %d", name, len(s.iterations), len(f.iterations))
	}
	if !slices.Equal(s.hooks, f.hooks) {
		t.Fatalf("%s: OnIteration sequences differ", name)
	}
	if !slices.Equal(s.events, f.events) {
		for i := 0; i < min(len(s.events), len(f.events)); i++ {
			if s.events[i] != f.events[i] {
				t.Fatalf("%s: event %d: sweep %+v, frontier %+v", name, i, s.events[i], f.events[i])
			}
		}
		t.Fatalf("%s: sweep made %d events, frontier %d", name, len(s.events), len(f.events))
	}
}

// TestSweepMatchesFrontier compares the one-worker sweep with the
// one-worker frontier on inputs of every shape the kernel meets,
// beyond FuzzSweepTrace's seeds and size cap: a small world that takes
// hundreds of iterations, R-MAT presets, k-trees, geometric and G(n,m)
// graphs, random graphs and a graph of isolated vertices.
func TestSweepMatchesFrontier(t *testing.T) {
	requireSameTrace(t, "ws:20000:8:0.1:7", must(synth.WattsStrogatz(20000, 8, 0.1, 7, 1)))
	for _, p := range []rmat.Preset{rmat.ER, rmat.G, rmat.B} {
		for _, scale := range []int{8, 11} {
			requireSameTrace(t, p.String(), mustRMAT(t, p, scale, 5))
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		requireSameTrace(t, "ktree", must(synth.KTree(300, 12, seed, 1)))
		requireSameTrace(t, "geo", must(synth.RandomGeometric(800, 0.06, seed, 1)))
		requireSameTrace(t, "gnm", must(synth.GNM(512, 4096, seed, 1)))
	}
	for seed := uint64(0); seed < 200; seed++ {
		n := 2 + int(seed%90)
		requireSameTrace(t, "random", randomGraph(n, int(seed*7%400), seed))
	}
	requireSameTrace(t, "isolated", graph.NewBuilder(70).Build())
}

// TestSweepCanceled checks that an already-canceled context stops the
// sweep on entry with the context's error.
func TestSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := must(synth.WattsStrogatz(2000, 8, 0.1, 3, 1))
	if _, err := sweepExtract(ctx, g, Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep under a canceled context returned %v, want context.Canceled", err)
	}
	if _, err := ExtractContext(ctx, g, Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExtractContext under a canceled context returned %v, want context.Canceled", err)
	}
}
