package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"chordal"
)

// repairEvery is how many pushes the stream client sends between its
// own Repair calls.
const repairEvery = 512

var streamIngest = workload{
	name:  "stream-ingest",
	why:   "many small online admissions and repair passes on a growing graph: the incremental kernel used as writes, not as one batch of border tests",
	heavy: []string{"stream"},
	light: []string{"source", "quality", "graph"},
	setup: func(cfg config) (bench, error) {
		scale := 11
		if cfg.tiny {
			scale = 8
		}
		// At this scale the R-MAT seed alone moves a session's cost by a
		// third, so the graph keeps its default seed and the run's seed
		// draws the arrival order.
		return newStreamBench(fmt.Sprintf("rmat-b:%d", scale), cfg.seed)
	},
}

// streamBench replays one graph's edges through a streaming session per
// operation, each session in its own seeded shuffled order: the order
// moves a session's cost by about a sixth, so a run's median averages
// over many orders instead of resting on one.
type streamBench struct {
	source   string
	vertices int
	us, vs   []int32
	rng      *rand.Rand
	ref      uint64
	refKept  float64
}

// newStreamBench generates the graph.
func newStreamBench(source string, seed int64) (*streamBench, error) {
	src, err := chordal.ParseSource(source)
	if err != nil {
		return nil, err
	}
	g, err := src.Load()
	if err != nil {
		return nil, err
	}
	b := &streamBench{source: source, vertices: g.NumVertices(), rng: rand.New(rand.NewSource(seed))}
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.us, b.vs = append(b.us, u), append(b.vs, v)
			}
		}
	}
	return b, nil
}

// reference is Spec.Run of the batch spec on the same graph: a closed
// session must reproduce its subgraph exactly.
func (b *streamBench) reference(ctx context.Context) error {
	res, err := chordal.Spec{
		Source:       b.source,
		Engine:       chordal.EngineParallel,
		EngineConfig: chordal.EngineConfig{Repair: true},
		Verify:       true,
	}.RunContext(ctx)
	if err != nil {
		return err
	}
	if !isChordal(res.Subgraph) {
		return fmt.Errorf("reference subgraph of %s is not chordal", b.source)
	}
	b.ref = edgeHash(res.Subgraph)
	b.refKept = 100 * float64(res.Subgraph.NumEdges()) / float64(res.InputStats.Edges)
	return nil
}

func (b *streamBench) close() {}

func (b *streamBench) measure(ctx context.Context, deadline time.Time, tr *tracer, mem *memSampler) (*result, error) {
	res := &result{keptPct: b.refKept}
	var sessions, admitted, pushed, repaired, deferred float64
	start := time.Now()
	for i := 0; i < minOps(tr) || time.Now().Before(deadline); i++ {
		res.tally.attempted++
		traced := tr != nil && i%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		b.rng.Shuffle(len(b.us), func(i, j int) {
			b.us[i], b.us[j] = b.us[j], b.us[i]
			b.vs[i], b.vs[j] = b.vs[j], b.vs[i]
		})
		d, st, err := b.session(ctx, t, res)
		res.peakMB = append(res.peakMB, mem.take())
		switch {
		case errors.Is(err, errCheck):
			res.tally.checkFailed++
			continue
		case err != nil:
			return nil, err
		}
		if traced {
			res.tracedMs = append(res.tracedMs, ms(d))
			sessions++
			admitted += float64(st.Admitted)
			pushed += float64(st.Pushed)
			repaired += float64(st.Repaired)
			deferred += float64(st.Deferred)
		} else {
			res.opMs = append(res.opMs, ms(d))
		}
	}
	res.window = time.Since(start)
	if sessions > 0 {
		res.layer = map[string]float64{
			"stream.admit_ratio": admitted / pushed,
			"stream.repaired":    repaired / sessions,
			"stream.deferred":    deferred / sessions,
		}
	}
	return res, nil
}

// session runs one streaming session — open, every delta, a Repair
// every repairEvery pushes, Close — and checks its result. Untraced
// sessions record each Push's latency in res.deltaUs; traced ones
// record a span per call instead.
func (b *streamBench) session(ctx context.Context, tr *tracer, res *result) (time.Duration, chordal.StreamStats, error) {
	start := time.Now()
	var op, root int
	if tr != nil {
		op, root = tr.newOp(start)
	}
	s, err := chordal.OpenStream(ctx, chordal.Spec{
		Mode:         chordal.ModeStream,
		Engine:       chordal.EngineParallel,
		EngineConfig: chordal.EngineConfig{Repair: true},
		Verify:       true,
	}, chordal.StreamConfig{Vertices: b.vertices})
	if err != nil {
		return 0, chordal.StreamStats{}, err
	}
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if tr != nil {
			tr.record(op, root, name, t0, t1)
		} else if name == "stream.push" {
			res.deltaUs = append(res.deltaUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
		return err
	}
	for i := range b.us {
		if err := timed("stream.push", func() error {
			_, err := s.Push(ctx, b.us[i], b.vs[i])
			return err
		}); err != nil {
			return 0, chordal.StreamStats{}, err
		}
		if (i+1)%repairEvery == 0 {
			if err := timed("stream.repair", func() error {
				_, err := s.Repair(ctx)
				return err
			}); err != nil {
				return 0, chordal.StreamStats{}, err
			}
		}
	}
	var out *chordal.StreamResult
	if err := timed("stream.close", func() error {
		out, err = s.Close(ctx)
		return err
	}); err != nil {
		return 0, chordal.StreamStats{}, err
	}
	end := time.Now()
	if tr != nil {
		tr.close(root, end)
	}
	if v := out.Report.Verify; v == nil || !v.Chordal || edgeHash(out.Subgraph) != b.ref {
		return 0, chordal.StreamStats{}, errCheck
	}
	return end.Sub(start), out.Report.Stream, nil
}
