package chordal_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chordal"
)

// TestBatchRunsSuite covers the batch layer end to end on a small
// mixed suite: every item runs, duplicates (by canonical spec, not by
// spelling) share one execution, invalid specs fail their own item
// without sinking the batch, and results match standalone Spec.Run.
func TestBatchRunsSuite(t *testing.T) {
	specs := []chordal.Spec{
		{Source: "rmat-g:9:5", Verify: true},
		{Source: "gnm:500:2000:3", Verify: true},
		{Source: " RMAT-G:9:5:8 ", Verify: true}, // canonical dup of item 0
		{Source: "rmat-er"},                      // invalid: missing scale
		{Source: "ktree:100:3:2", Engine: "serial", Verify: true},
	}
	res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(res.Items) != len(specs) {
		t.Fatalf("%d items, want %d", len(res.Items), len(specs))
	}
	if res.Unique != 3 {
		t.Errorf("Unique = %d, want 3", res.Unique)
	}
	if res.Failed() != 1 {
		t.Errorf("Failed = %d, want 1 (the invalid spec)", res.Failed())
	}

	for _, i := range []int{0, 1, 4} {
		it := res.Items[i]
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if it.DupOf != -1 {
			t.Errorf("item %d DupOf = %d, want -1", i, it.DupOf)
		}
		if !it.Result.ChordalOK {
			t.Errorf("item %d not chordal", i)
		}
	}
	dup := res.Items[2]
	if dup.DupOf != 0 {
		t.Fatalf("item 2 DupOf = %d, want 0", dup.DupOf)
	}
	if dup.Result != res.Items[0].Result {
		t.Error("duplicate item does not share the original's result")
	}
	if res.Items[3].Err == nil || !strings.Contains(res.Items[3].Err.Error(), "missing scale") {
		t.Errorf("invalid item error = %v", res.Items[3].Err)
	}

	// A batch item's subgraph is byte-identical to a standalone run of
	// the same spec — the pool width must not change the result.
	solo, err := specs[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Items[0].Result.Subgraph
	if !reflect.DeepEqual(got.Offsets, solo.Subgraph.Offsets) || !reflect.DeepEqual(got.Adj, solo.Subgraph.Adj) {
		t.Error("batch subgraph differs from standalone Spec.Run")
	}

	// The aggregate report accounts for every item.
	rep := res.Report()
	if rep.Total != 5 || rep.Unique != 3 || rep.Deduplicated != 1 || rep.Failed != 1 {
		t.Errorf("report totals %+v", rep)
	}
	if rep.Items[2].DupOf == nil || *rep.Items[2].DupOf != 0 {
		t.Errorf("report item 2 DupOf = %v, want 0", rep.Items[2].DupOf)
	}
	if rep.Items[0].Report == nil || rep.Items[0].Report.Verify == nil || !rep.Items[0].Report.Verify.Chordal {
		t.Errorf("report item 0 missing verified run report")
	}
	if rep.Items[3].Error == "" {
		t.Error("report item 3 missing error")
	}
}

// TestBatchEventTagging checks that a shared Observer sees every
// item's events tagged with its batch index, and that duplicate items
// (which never run) produce no events of their own.
func TestBatchEventTagging(t *testing.T) {
	specs := []chordal.Spec{
		{Source: "rmat-g:8:3", Verify: true},
		{Source: "gnm:300:1200:9", Verify: true},
		{Source: "rmat-g:8:3", Verify: true}, // dup of 0
	}
	var mu sync.Mutex
	stagesByItem := map[int][]string{}
	res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{
		Observer: func(ev chordal.Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Batch == nil {
				t.Error("batch event without Batch index")
				return
			}
			if ev.Type == chordal.EventStageBegin {
				stagesByItem[*ev.Batch] = append(stagesByItem[*ev.Batch], ev.Stage)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Failed(); n != 0 {
		t.Fatalf("%d failures", n)
	}
	want := []string{"acquire", "extract", "verify"}
	for _, idx := range []int{0, 1} {
		if !reflect.DeepEqual(stagesByItem[idx], want) {
			t.Errorf("item %d stages %v, want %v", idx, stagesByItem[idx], want)
		}
	}
	if evs, ok := stagesByItem[2]; ok {
		t.Errorf("duplicate item emitted its own events: %v", evs)
	}
}

// TestBatchDistinctOutputsNotDeduped pins the dedup key: two items
// with one canonical spec but different Output paths must both run —
// Canonical excludes Output, but skipping the second item would
// silently drop its file write.
func TestBatchDistinctOutputsNotDeduped(t *testing.T) {
	dir := t.TempDir()
	outA, outB := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.bin")
	specs := []chordal.Spec{
		{Source: "gnm:200:800:3", Output: outA},
		{Source: "gnm:200:800:3", Output: outB},
		{Source: "gnm:200:800:3", Output: outA}, // true duplicate of item 0
		{Source: "gnm:100:400:9", Output: outA}, // DISTINCT spec, same file: rejected
		{Source: "gnm:200:800:3"},               // outputless: rides item 0's run
	}
	res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Failed(); n != 1 {
		t.Fatalf("%d failed, want 1 (the output collision)", n)
	}
	if res.Unique != 2 {
		t.Errorf("Unique = %d, want 2 (distinct outputs both run)", res.Unique)
	}
	if res.Items[1].DupOf != -1 {
		t.Errorf("item 1 (different output) deduplicated onto %d", res.Items[1].DupOf)
	}
	if res.Items[2].DupOf != 0 {
		t.Errorf("item 2 DupOf = %d, want 0", res.Items[2].DupOf)
	}
	if e := res.Items[3].Err; e == nil || !strings.Contains(e.Error(), "collides with item 0") {
		t.Errorf("item 3 (distinct spec, shared file) err = %v, want output collision", e)
	}
	if res.Items[4].DupOf != 0 {
		t.Errorf("item 4 (outputless dup) DupOf = %d, want to ride item 0", res.Items[4].DupOf)
	}
	for _, p := range []string{outA, outB} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("output %s not written: %v", p, err)
		}
	}
}

// brokenEngine produces a deliberately non-chordal subgraph (a 4-cycle)
// so verify fails without an execution error.
type brokenEngine struct{}

func (brokenEngine) Name() string { return "test-broken" }
func (brokenEngine) Extract(_ context.Context, g *chordal.Graph, _ chordal.EngineConfig) (*chordal.EngineResult, error) {
	sub, err := chordal.BuildFromEdges(g.NumVertices(), []int32{0, 1, 2, 3}, []int32{1, 2, 3, 0})
	return &chordal.EngineResult{Subgraph: sub}, err
}

var registerBroken sync.Once

// TestBatchVerifyFailedCount pins the pass/fail accounting surface: an
// item that runs but fails verification carries no error, so it lands
// in VerifyFailed (and the report's verifyFailed), not Failed — and
// both the CLI exit code and JSON consumers read the same rule.
func TestBatchVerifyFailedCount(t *testing.T) {
	registerBroken.Do(func() { chordal.RegisterEngine(brokenEngine{}) })
	specs := []chordal.Spec{
		{Source: "gnm:100:400:3", Verify: true},
		{Source: "gnm:100:400:3", Engine: "test-broken", Verify: true},
	}
	res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Failed(); got != 0 {
		t.Errorf("Failed = %d, want 0 (verify failure is not an execution error)", got)
	}
	if got := res.VerifyFailed(); got != 1 {
		t.Errorf("VerifyFailed = %d, want 1", got)
	}
	rep := res.Report()
	if rep.Failed != 0 || rep.VerifyFailed != 1 {
		t.Errorf("report failed=%d verifyFailed=%d, want 0/1", rep.Failed, rep.VerifyFailed)
	}
}

// TestBatchCancel checks the drain contract: a canceled batch returns
// ctx.Err(), every item is accounted for, and items that never started
// carry the context error rather than hanging.
func TestBatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the batch starts: nothing may run
	specs := []chordal.Spec{
		{Source: "rmat-g:10:3", Verify: true},
		{Source: "gnm:1000:8000:3", Verify: true},
	}
	res, err := chordal.Batch(ctx, specs, chordal.BatchOptions{Concurrency: 1})
	if err != context.Canceled {
		t.Fatalf("Batch err = %v, want context.Canceled", err)
	}
	for i, it := range res.Items {
		if !errors.Is(it.Err, context.Canceled) {
			t.Errorf("item %d err = %v, want context.Canceled", i, it.Err)
		}
	}
}

// slotEngine records the worker width (cfg.Workers) of every batch
// item in flight. The first wave of items waits at a gate until wave
// items run at once, so every slot is seen busy.
type slotEngine struct {
	mu       sync.Mutex
	total    int
	split    map[int]int // width -> number of slots of that width
	running  map[int]int // width -> items in flight at that width
	inflight int
	sum      int
	peak     int
	wave     int
	gate     chan struct{}
	opened   bool
	errs     []string
}

func (*slotEngine) Name() string { return "test-slots" }

func (e *slotEngine) Extract(_ context.Context, g *chordal.Graph, cfg chordal.EngineConfig) (*chordal.EngineResult, error) {
	w := cfg.Workers
	e.mu.Lock()
	e.inflight++
	e.sum += w
	e.running[w]++
	e.peak = max(e.peak, e.inflight)
	if e.running[w] > e.split[w] {
		e.errs = append(e.errs, fmt.Sprintf("%d items in flight at width %d, but the split %v has %d such slots", e.running[w], w, e.split, e.split[w]))
	}
	if e.sum > e.total {
		e.errs = append(e.errs, fmt.Sprintf("in-flight widths sum to %d, over the %d-token budget", e.sum, e.total))
	}
	if e.inflight == e.wave && !e.opened {
		e.opened = true
		close(e.gate)
	}
	e.mu.Unlock()
	select {
	case <-e.gate:
	case <-time.After(10 * time.Second):
		e.mu.Lock()
		e.errs = append(e.errs, fmt.Sprintf("never %d items in flight at once", e.wave))
		e.mu.Unlock()
	}
	e.mu.Lock()
	e.inflight--
	e.sum -= w
	e.running[w]--
	e.mu.Unlock()
	sub, err := chordal.BuildFromEdges(g.NumVertices(), nil, nil)
	return &chordal.EngineResult{Subgraph: sub}, err
}

var slotRecorder = &slotEngine{}
var registerSlots sync.Once

// TestBatchSlotWidths pins how Batch divides its budget: at most
// min(Concurrency, Workers) items run at once, each at its slot's fixed
// width, the widths splitting the budget evenly with the remainder on
// the first slots (8 tokens on 3 slots run at 3, 3 and 2).
func TestBatchSlotWidths(t *testing.T) {
	registerSlots.Do(func() { chordal.RegisterEngine(slotRecorder) })
	for _, tc := range []struct {
		workers, concurrency int
		split                map[int]int
	}{
		{8, 3, map[int]int{3: 2, 2: 1}},
		{4, 0, map[int]int{1: 4}},
		{2, 5, map[int]int{1: 2}},
		{5, 2, map[int]int{3: 1, 2: 1}},
	} {
		wave := 0
		for _, n := range tc.split {
			wave += n
		}
		slotRecorder.mu.Lock()
		slotRecorder.total, slotRecorder.split, slotRecorder.running = tc.workers, tc.split, map[int]int{}
		slotRecorder.wave, slotRecorder.gate, slotRecorder.opened, slotRecorder.peak = wave, make(chan struct{}), false, 0
		slotRecorder.errs = nil
		slotRecorder.mu.Unlock()

		var specs []chordal.Spec
		for seed := 1; seed <= 12; seed++ {
			specs = append(specs, chordal.Spec{Source: fmt.Sprintf("gnm:30:60:%d", seed), Engine: "test-slots"})
		}
		res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{Workers: tc.workers, Concurrency: tc.concurrency})
		if err != nil || res.Failed() != 0 {
			t.Fatalf("workers=%d concurrency=%d: Batch err %v, %d items failed", tc.workers, tc.concurrency, err, res.Failed())
		}
		slotRecorder.mu.Lock()
		for _, e := range slotRecorder.errs {
			t.Errorf("workers=%d concurrency=%d: %s", tc.workers, tc.concurrency, e)
		}
		if slotRecorder.peak != wave {
			t.Errorf("workers=%d concurrency=%d: peak %d items in flight, want %d", tc.workers, tc.concurrency, slotRecorder.peak, wave)
		}
		slotRecorder.mu.Unlock()
	}
}

// TestBatchWorkersBound checks that an item's explicit narrow Workers
// request survives the pool (the slot width only caps, never widens).
func TestBatchWorkersBound(t *testing.T) {
	specs := []chordal.Spec{{
		Source:       "rmat-g:8:3",
		EngineConfig: chordal.EngineConfig{Workers: 1},
		Verify:       true,
	}}
	res, err := chordal.Batch(context.Background(), specs, chordal.BatchOptions{Workers: 4, Concurrency: 1})
	if err != nil || res.Items[0].Err != nil {
		t.Fatalf("Batch: %v / %v", err, res.Items[0].Err)
	}
	if got := res.Items[0].Spec.Workers; got != 1 {
		t.Errorf("normalized spec Workers = %d, want the explicit 1 preserved", got)
	}
	if !res.Items[0].Result.ChordalOK {
		t.Error("not chordal")
	}
}
