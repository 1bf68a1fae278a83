package chordal_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chordal"
	"chordal/internal/synth"
)

// pushAll streams every edge of g into s in the order fn visits them.
func pushAll(t *testing.T, s *chordal.Stream, g *chordal.Graph, reverse bool) {
	t.Helper()
	us, vs := g.EdgeList()
	if reverse {
		for i := len(us) - 1; i >= 0; i-- {
			if _, err := s.Push(context.Background(), us[i], vs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for i := range us {
		if _, err := s.Push(context.Background(), us[i], vs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// sameGraph compares two graphs by vertex count and exact edge list.
func sameGraph(a, b *chordal.Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	au, av := a.EdgeList()
	bu, bv := b.EdgeList()
	return reflect.DeepEqual(au, bu) && reflect.DeepEqual(av, bv)
}

// TestStreamCanonicalGolden pins the stream-mode canonical token. The
// batch goldens in TestSpecCanonicalGolden prove the token is absent
// from every pre-existing key; this one pins where it appears.
func TestStreamCanonicalGolden(t *testing.T) {
	spec := chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}, Verify: true}
	want := "v1 engine=parallel relabel=none variant=auto schedule=dataflow repair=true stitch=false partitions=0 shards=0 stitchonly=false verify=true mode=stream src="
	if got := mustCanonical(t, spec); got != want {
		t.Errorf("stream canonical:\n got  %s\n want %s", got, want)
	}
	// Spelling out batch is identity-neutral: it normalizes to the zero
	// value and the canonical key carries no mode token.
	a := mustCanonical(t, chordal.Spec{Source: "gnm:100:300"})
	b := mustCanonical(t, chordal.Spec{Source: "gnm:100:300", Mode: "batch"})
	if a != b {
		t.Errorf("mode=batch split the identity: %q vs %q", a, b)
	}
}

// TestStreamSpecValidation exercises the stream-mode validation rules.
func TestStreamSpecValidation(t *testing.T) {
	bad := []chordal.Spec{
		{Mode: "stream", Source: "gnm:100:300"},                         // deltas, not a source
		{Mode: "stream", Relabel: "bfs"},                                // needs the whole graph
		{Mode: "stream", Output: "out.bin"},                             // results come from Close
		{Mode: "stream", Engine: "serial"},                              // streams run only parallel
		{Mode: "stream", Engine: "none"},                                // no engine at all
		{Mode: "trickle"},                                               // unknown mode
		{Mode: "stream", EngineConfig: chordal.EngineConfig{Shards: 2}}, // sharded: streams run only parallel
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v: want validation error, got none", s)
		}
	}
	if _, err := (chordal.Spec{Mode: "stream"}).Run(); err == nil {
		t.Error("Run on a stream spec: want error, got none")
	}
	if _, err := chordal.OpenStream(context.Background(), chordal.Spec{Source: "gnm:100:300"}, chordal.StreamConfig{}); err == nil {
		t.Error("OpenStream on a batch spec: want error, got none")
	}
}

// TestStreamEquivalenceGrid is the stream layer's central equivalence
// property: streaming a graph's edges — in the batch engine's input
// order or reversed, repairing only at Close or every 64 or 512
// deltas — and closing with repair on yields a final subgraph
// byte-identical to the batch parallel engine with the maximality
// repair pass on the same input. Close canonicalizes by running the
// spec's batch twin over the accumulated edge set, so the identity
// holds by construction for every arrival order and cadence; this test
// pins the whole path (delta accounting, input reconstruction,
// mid-stream repair passes, the canonical run) and requires the close
// report to equal the batch run report in everything but the spec, its
// canonical key and the timings, which must name exactly the extract
// and verify stages (the batch run also acquires). The mid-stream
// cadences run in input order only: on gse5140-crt:64:3 a cadence of
// 64 makes 192 passes over a long deferred queue, most of the grid's
// time.
func TestStreamEquivalenceGrid(t *testing.T) {
	sources := []string{
		"rmat-er:8:3", "rmat-g:8:7", "rmat-b:8:5",
		"gnm:400:1600:5", "ws:300:6:0.1:9", "geo:300:0.08:11",
		"ktree:200:4:13", "gse5140-crt:64:3",
	}
	for _, srcSpec := range sources {
		src, err := chordal.ParseSource(srcSpec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := src.Load()
		if err != nil {
			t.Fatal(err)
		}
		// One worker on both surfaces: the reports are compared whole,
		// and the dataflow schedule's iteration count (not its edge set)
		// depends on thread timing at two or more workers.
		cfg := chordal.EngineConfig{Workers: 1, Repair: true}
		batchSpec := chordal.Spec{
			Source:       srcSpec,
			EngineConfig: cfg,
			Verify:       true,
		}
		batch, err := batchSpec.Run()
		if err != nil {
			t.Fatal(err)
		}
		batchRep, err := chordal.Report(batchSpec, batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			every   int
			reverse bool
		}{{0, false}, {0, true}, {64, false}, {512, false}} {
			cell := fmt.Sprintf("%s (repairEvery=%d, reverse=%t)", srcSpec, c.every, c.reverse)
			spec := chordal.Spec{Mode: chordal.ModeStream, EngineConfig: cfg, Verify: true}
			s, err := chordal.OpenStream(context.Background(), spec,
				chordal.StreamConfig{Vertices: g.NumVertices(), RepairEvery: c.every})
			if err != nil {
				t.Fatal(err)
			}
			pushAll(t, s, g, c.reverse)
			res, err := s.Close(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(res.Input, g) {
				t.Errorf("%s: accumulated input differs from the source graph", cell)
			}
			if !sameGraph(res.Subgraph, batch.Subgraph) {
				t.Errorf("%s: stream subgraph (%d edges) differs from parallel+repair (%d edges)",
					cell, res.Subgraph.NumEdges(), batch.Subgraph.NumEdges())
			}
			st := res.Report.Stream
			if st.Pushed != g.NumEdges() {
				t.Errorf("%s: pushed %d of %d deltas", cell, st.Pushed, g.NumEdges())
			}
			// Close runs one pass; every source has more than 64 edges,
			// so the cadence must have run at least one more.
			if c.every == 64 && st.Repairs <= 1 {
				t.Errorf("%s: %d repair passes, want the cadence to fire", cell, st.Repairs)
			}
			var stages []string
			for _, tm := range res.Report.Timings {
				stages = append(stages, tm.Stage)
			}
			if want := []string{"extract", "verify"}; !reflect.DeepEqual(stages, want) {
				t.Errorf("%s: close timings %v, want %v", cell, stages, want)
			}
			got, want := res.Report.RunReport, batchRep
			for _, r := range []*chordal.RunReport{&got, &want} {
				r.Spec, r.Canonical, r.Timings, r.TotalMillis = chordal.Spec{}, "", nil, 0
			}
			if !reflect.DeepEqual(got, want) {
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(want)
				t.Errorf("%s: close report differs from the batch report\n stream %s\n batch  %s", cell, gj, wj)
			}
		}
	}
}

// TestStreamMetamorphicChordalInsertion: inserting an already-chordal
// graph, in any order, ends with zero net rejections — after the final
// repair pass the deferred queue is empty and the maintained subgraph
// is the input itself (a chordal graph is its own unique maximal
// chordal subgraph). Mid-stream deferrals are expected (an edge can
// arrive before the clique that licenses it); the property is that
// repair always clears them.
func TestStreamMetamorphicChordalInsertion(t *testing.T) {
	inputs := []*chordal.Graph{
		must(synth.KTree(200, 4, 13)),
		must(synth.KTree(120, 3, 7)),
		must(synth.KTree(60, 6, 1)),
	}
	for gi, g := range inputs {
		if !chordal.IsChordal(g) {
			t.Fatalf("input %d: generator promised a chordal graph", gi)
		}
		us, vs := g.EdgeList()
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(100*gi + trial)))
			perm := rng.Perm(len(us))
			spec := chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}}
			s, err := chordal.OpenStream(context.Background(), spec, chordal.StreamConfig{Vertices: g.NumVertices()})
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range perm {
				if _, err := s.Push(context.Background(), us[i], vs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Repair(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Deferred != 0 {
				t.Errorf("input %d trial %d: %d edges still deferred after repair on a chordal input", gi, trial, st.Deferred)
			}
			if st.Admitted+st.Repaired != int64(len(us)) {
				t.Errorf("input %d trial %d: admitted %d + repaired %d != %d edges", gi, trial, st.Admitted, st.Repaired, len(us))
			}
			if got := s.Maintained(); int64(len(got)) != g.NumEdges() {
				t.Errorf("input %d trial %d: maintained %d edges, want the full input %d", gi, trial, len(got), g.NumEdges())
			}
			res, err := s.Close(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(res.Subgraph, g) {
				t.Errorf("input %d trial %d: canonical result differs from the chordal input", gi, trial)
			}
		}
	}
}

// TestStreamReofferedEdgeClosesOnce: an edge deferred once and then
// accepted when offered again is counted once. It leaves the deferred
// queue, and Close, which builds its input from the maintained edges
// and the queue without deduplicating, gives that input a single copy.
func TestStreamReofferedEdgeClosesOnce(t *testing.T) {
	ctx := context.Background()
	s, err := chordal.OpenStream(ctx, chordal.Spec{Mode: chordal.ModeStream}, chordal.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		u, v   int32
		reason chordal.AdmitReason
	}{
		{0, 1, chordal.AdmitBridge},
		{1, 2, chordal.AdmitBridge},
		{2, 3, chordal.AdmitBridge},
		{0, 3, chordal.AdmitDeferred},
		{0, 2, chordal.AdmitAccepted},
		{3, 0, chordal.AdmitAccepted},
	} {
		got, err := s.Push(ctx, d.u, d.v)
		if err != nil || got.Reason != string(d.reason) {
			t.Fatalf("push (%d,%d): reason %s (%v), want %s", d.u, d.v, got.Reason, err, d.reason)
		}
	}
	if st := s.Stats(); st.Deferred != 0 || st.SubgraphEdges != 5 {
		t.Fatalf("stats: %+v, want 0 deferred and 5 edges", st)
	}
	res, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Input.Validate(); err != nil || res.Input.NumEdges() != 5 {
		t.Fatalf("close input: %d edges (%v), want 5 distinct", res.Input.NumEdges(), err)
	}
}

// TestStreamSessionMechanics covers the session-surface behaviors the
// equivalence grid does not: events, repair cadence, growth and caps,
// duplicate/invalid accounting, and Close idempotence.
func TestStreamSessionMechanics(t *testing.T) {
	var events []chordal.Event
	spec := chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}, Verify: true}
	s, err := chordal.OpenStream(context.Background(), spec, chordal.StreamConfig{
		Vertices:    2,
		MaxVertices: 64,
		Observer:    func(ev chordal.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	push := func(u, v int32, wantReason chordal.AdmitReason) {
		t.Helper()
		d, err := s.Push(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		if d.Reason != string(wantReason) {
			t.Fatalf("push (%d,%d): reason %s, want %s", u, v, d.Reason, wantReason)
		}
	}
	// C4 in an order that forces a deferral, plus growth past the
	// initial universe, a duplicate, a self loop and a capped id.
	push(0, 1, chordal.AdmitBridge)
	push(1, 2, chordal.AdmitBridge) // grows the universe to 3
	push(2, 3, chordal.AdmitBridge) // and to 4
	push(0, 3, chordal.AdmitDeferred)
	push(0, 3, chordal.AdmitDeferred) // dedup: still one queue slot
	push(0, 1, chordal.AdmitPresent)
	push(5, 5, chordal.AdmitInvalid)
	push(1, 99, chordal.AdmitInvalid) // beyond MaxVertices
	push(0, 2, chordal.AdmitAccepted) // chords the square...
	if n, err := s.Repair(ctx); err != nil || n != 1 {
		t.Fatalf("repair: admitted %d (%v), want 1", n, err)
	}
	st := s.Stats()
	if st.Deferred != 0 || st.Repaired != 1 || st.Duplicates != 1 || st.Invalid != 2 || st.Admitted != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Vertices != 4 {
		t.Fatalf("universe %d, want 4 (grown on demand from 2)", st.Vertices)
	}
	res, err := s.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.NumEdges() != 5 || !res.Report.Verify.Chordal {
		t.Fatalf("close: %d edges, verify %+v", res.Subgraph.NumEdges(), res.Report.Verify)
	}
	if res.Report.Verify.ReAddableEdges != 0 || !res.Report.Verify.MaximalityAudited {
		t.Fatalf("close verify: %+v", res.Report.Verify)
	}
	// Close runs the batch twin through Runner.Run: its observer sees a
	// begin/end pair for each stage, and the report times both.
	var stages []string
	for _, ev := range events {
		if ev.Type == chordal.EventStageBegin || ev.Type == chordal.EventStageEnd {
			stages = append(stages, string(ev.Type)+" "+ev.Stage)
		}
	}
	if want := []string{"stage extract", "stageEnd extract", "stage verify", "stageEnd verify"}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("close stage events %v, want %v", stages, want)
	}
	if len(res.Report.Timings) != 2 || res.Report.Quality == nil {
		t.Fatalf("close report timings %+v quality %+v, want extract and verify timed and quality set", res.Report.Timings, res.Report.Quality)
	}
	// Idempotent close; pushes after close fail.
	if res2, err := s.Close(ctx); err != nil || res2 != res {
		t.Fatalf("second close: %v, same result %t", err, res2 == res)
	}
	if _, err := s.Push(ctx, 0, 1); err == nil {
		t.Fatal("push after close: want error")
	}
	// Event accounting: one admit/defer per push plus one admit per
	// repaired edge, and a repair summary per pass (cadence + close).
	var admits, defers, repairs int
	for _, ev := range events {
		switch ev.Type {
		case chordal.EventAdmit:
			admits++
			if ev.Delta == nil || !ev.Delta.Accepted {
				t.Fatalf("admit event without accepted delta: %+v", ev)
			}
		case chordal.EventDefer:
			defers++
		case chordal.EventRepair:
			repairs++
		}
	}
	if admits != 5 || defers != 5 || repairs != 2 {
		t.Fatalf("events: %d admits, %d defers, %d repairs", admits, defers, repairs)
	}
}

// TestStreamRepairCadence verifies RepairEvery triggers repair passes
// during the stream, not only at close.
func TestStreamRepairCadence(t *testing.T) {
	spec := chordal.Spec{Mode: chordal.ModeStream}
	s, err := chordal.OpenStream(context.Background(), spec, chordal.StreamConfig{Vertices: 4, RepairEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}} { // C4: last edge defers
		if _, err := s.Push(ctx, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Repairs != 0 || st.Deferred != 1 {
		t.Fatalf("before cadence: %+v", st)
	}
	if _, err := s.Push(ctx, 0, 2); err != nil { // 5th delta: chord lands, cadence fires
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Repairs != 1 || st.Repaired != 1 || st.Deferred != 0 {
		t.Fatalf("after cadence: %+v", st)
	}
}
