package chordal

import (
	"context"
	"fmt"
	"time"

	"chordal/internal/parallel"
)

// This file defines the batch layer: one call that runs many Specs
// inside one worker budget — the paper's headline workload is a suite
// of gene-correlation graphs extracted back-to-back, not one giant
// graph. Batch does what per-item Spec.Run cannot: items run
// concurrently on fixed-width slots whose widths sum to the budget
// (never oversubscribing the machine the way N full-width runs would),
// and items with identical Canonical() keys are deduplicated onto one
// execution. The service's POST /v1/batches and the CLI's -batch mode
// are thin layers over the same semantics.

// BatchOptions configures a Batch run. The zero value is ready to use:
// machine-width budget, one slot per token, events discarded.
type BatchOptions struct {
	// Workers is the total worker-token budget shared by every item in
	// the batch; <= 0 selects the machine's effective parallelism. An
	// item's own Spec.Workers request is honored only below its slot's
	// granted width — the batch never oversubscribes its budget.
	Workers int
	// Concurrency bounds simultaneously running items (the slot
	// count). <= 0 selects one slot per budget token — for suites of
	// small graphs, cross-item overlap beats within-item width. Values
	// above the budget are clamped. Each slot runs its items at a fixed
	// width: the budget split evenly, the remainder on the first slots.
	Concurrency int
	// Observer receives every item's event stream, each event tagged
	// with its batch item index in Event.Batch. Items run concurrently,
	// so events of different items interleave; the Observer must be
	// safe for concurrent use. nil discards events.
	Observer Observer
}

// BatchItem is the outcome of one spec in a Batch.
type BatchItem struct {
	// Index is the item's position in the submitted spec slice.
	Index int
	// Spec is the normalized spec (zero when normalization failed; see
	// Err).
	Spec Spec
	// Canonical is the spec's identity key (empty when normalization
	// failed).
	Canonical string
	// DupOf is the index of the earlier item with the same Canonical
	// key and Output path that this item was deduplicated onto, or -1
	// when the item executed (or failed) itself. A duplicate shares the
	// original's Result and Err.
	DupOf int
	// Result is the finished run's outputs; nil when the item failed.
	Result *PipelineResult
	// Err is the item's failure: a normalization error, the run error,
	// or the batch context's error for items canceled before running.
	Err error
}

// BatchResult is the outcome of a Batch: one BatchItem per submitted
// spec, in submission order.
type BatchResult struct {
	// Items has one entry per submitted spec.
	Items []BatchItem
	// Unique counts the items that ran their own execution —
	// duplicates, invalid items, output-path collisions, and items
	// canceled before a slot took them are excluded.
	Unique int
	// Wall is the batch's wall-clock time, scheduling included. Compare
	// with the sum of per-item timings to see the overlap won.
	Wall time.Duration
}

// Failed counts items that finished with an error (duplicates of a
// failed item included).
func (r *BatchResult) Failed() int {
	n := 0
	for _, it := range r.Items {
		if it.Err != nil {
			n++
		}
	}
	return n
}

// VerifyFailed counts items that ran to completion but failed their
// verification: the verify stage found the subgraph non-chordal, or
// the sharded engine's reconciliation self-check failed. Duplicates of
// such an item are counted too. These items carry no Err — use this
// alongside Failed to decide whether a batch passed.
func (r *BatchResult) VerifyFailed() int {
	n := 0
	for _, it := range r.Items {
		if res := it.Result; it.Err == nil && res != nil &&
			((res.Verified && !res.ChordalOK) || (res.Shard != nil && !res.Shard.Chordal)) {
			n++
		}
	}
	return n
}

// Batch runs every spec inside one worker budget on fixed-width slots,
// with bounded concurrency and per-item events tagged with the item
// index. Items whose Canonical() keys collide are deduplicated
// (unless their Output paths differ — every requested file is still
// written): only the first runs, later duplicates share its result and
// record DupOf. Invalid specs, and distinct specs naming one Output
// path (concurrent writes to one file would race), fail their own item
// without stopping the batch.
//
// On context cancellation, running items drain at their next stage
// boundary or kernel cancellation check (an iteration boundary, or
// every 4096 parents of a one-worker sweep) and unstarted items fail
// with ctx.Err(); the
// returned error is ctx.Err() then and nil otherwise — per-item
// failures live in the items, not the batch error. The result is
// non-nil either way, with every item accounted for.
func Batch(ctx context.Context, specs []Spec, opts BatchOptions) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &BatchResult{Items: make([]BatchItem, len(specs))}

	// Normalize and dedup up front: validation errors settle their item
	// immediately, duplicates point at the first holder of their key.
	// The dedup key is Canonical plus the Output path: Canonical alone
	// deliberately excludes Output (it does not change the result), but
	// an item asked to write a different file must still run — skipping
	// it would silently drop the write. Conversely, two *distinct*
	// specs naming one Output path would run concurrently and race
	// truncating the same file, so the collision fails the later item.
	firstByKey := make(map[string]int, len(specs))
	firstByCanon := make(map[string]int, len(specs))
	firstByOutput := make(map[string]int)
	for i, s := range specs {
		it := &res.Items[i]
		it.Index = i
		it.DupOf = -1
		n, err := s.Normalize()
		if err != nil {
			it.Err = err
			continue
		}
		canon, err := n.Canonical()
		if err != nil {
			it.Err = err
			continue
		}
		it.Spec = n
		it.Canonical = canon
		key := canon + "\x00" + n.Output
		if first, dup := firstByKey[key]; dup {
			it.DupOf = first
			continue
		}
		if n.Output == "" {
			// An outputless item needs only the result, so it can ride
			// any earlier run of the same canonical spec, even one that
			// also writes a file.
			if first, dup := firstByCanon[canon]; dup {
				it.DupOf = first
				continue
			}
		} else {
			if prev, clash := firstByOutput[n.Output]; clash {
				it.Err = fmt.Errorf("chordal: batch item %d: output %q collides with item %d (distinct specs writing one file would race)", i, n.Output, prev)
				continue
			}
			firstByOutput[n.Output] = i
		}
		firstByKey[key] = i
		if _, seen := firstByCanon[canon]; !seen {
			firstByCanon[canon] = i
		}
		res.Unique++
	}

	// The unique items run on fixed-width slots, so the widths of
	// concurrent items never sum past the budget. An item no slot took
	// before ctx ended did not run, so it is not one of the batch's
	// executed uniques.
	var todo []int
	for i := range res.Items {
		if res.Items[i].Err == nil && res.Items[i].DupOf < 0 {
			todo = append(todo, i)
		}
	}
	started := parallel.Slots(ctx, len(todo), opts.Workers, opts.Concurrency, func(k, width int) {
		it := &res.Items[todo[k]]
		it.Result, it.Err = runBatchItem(ctx, todo[k], it.Spec, width, opts.Observer)
	})
	for _, i := range todo[started:] {
		res.Items[i].Err = ctx.Err()
		res.Unique--
	}

	// Settle duplicates onto their originals' outcomes.
	for i := range res.Items {
		it := &res.Items[i]
		if it.DupOf >= 0 {
			orig := &res.Items[it.DupOf]
			it.Result = orig.Result
			it.Err = orig.Err
		}
	}
	res.Wall = time.Since(start)
	return res, ctx.Err()
}

// runBatchItem runs item index of a batch at its slot's width; an
// explicit narrower Workers request in the spec still wins. Every event
// is tagged with the item index.
func runBatchItem(ctx context.Context, index int, spec Spec, width int, obs Observer) (*PipelineResult, error) {
	if spec.Workers <= 0 || spec.Workers > width {
		spec.Workers = width
	}
	runner := Runner{}
	if obs != nil {
		// One tag per item, not per event: Event is delivered by value,
		// so every event of this item can share the one pointer.
		tag := index
		runner.Observer = func(ev Event) {
			ev.Batch = &tag
			obs(ev)
		}
	}
	return runner.Run(ctx, spec)
}
