package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"chordal/internal/graph"
	"chordal/internal/incremental"
	"chordal/internal/parallel"
	"chordal/internal/worklist"
)

// Grain is the chunk size of the per-iteration parallel loop: one
// work-stealing grab claims Grain vertex ids of the queue bitmap, four
// 64-bit words (Grain queued parents under UnsortedQueue). It only
// matters at two or more workers; one worker runs a plain loop.
const Grain = 256

// noParent marks a vertex whose lowest parents are exhausted (the
// paper's "LP = 0"; we use -1 because ids start at 0). A vertex whose
// lp is noParent is "finalized": its chordal set can no longer grow.
const noParent = int32(-1)

// workerCounters accumulates per-worker statistics; instances live in a
// []parallel.Padded[workerCounters] so each worker's counters stay on
// their own cache line.
type workerCounters struct {
	tested   int64
	accepted int64
	scan     int64
}

// state carries the shared arrays of one extraction run.
type state struct {
	g   *graph.Graph
	opt bool // optimized (sorted-adjacency) code path

	lp           []int32 // current lowest parent id, or noParent (atomic access)
	lpIdx        []int32 // Opt: index of lp[w] among w's candidate parents
	smallerCount []int32 // number of neighbors with smaller id

	csetOff  []int64 // prefix offsets into csetData, one region per vertex
	csetData []int32 // chordal neighbor storage, ascending per vertex (Opt: candidates past csetLen)
	csetLen  []int32 // published lengths (atomic access)
	snapLen  []int32 // synchronous schedule: lengths at iteration start
	lpIter   []int32 // synchronous schedule: iteration that assigned lp[w]

	frontier *worklist.Frontier
	workers  int
	counters []parallel.Padded[workerCounters]
	opts     Options
	iter     int
}

// Extract runs Algorithm 1 on g and returns the maximal chordal edge set
// together with per-iteration instrumentation. It is ExtractContext with
// a background context.
func Extract(g *graph.Graph, opts Options) (*Result, error) {
	return ExtractContext(context.Background(), g, opts)
}

// ExtractContext runs Algorithm 1 on g under ctx. Cancellation is
// observed by the kernel (at iteration boundaries, or every 4096
// parents at one worker) and by the stitch and repair post-passes:
// when ctx is done, all worker goroutines drain and ctx.Err() is
// returned, so a canceled job never leaks workers.
//
// The default configuration at one worker (dataflow schedule, Opt,
// ascending queue) runs as one ascending sweep over the parents
// (sweep.go); every other configuration runs the frontier's passes.
// Both produce the same edge set, chordal sets and iteration trace.
func ExtractContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	return extract(ctx, g, opts, true)
}

// extract is ExtractContext. With sweep false it runs the frontier in
// every configuration: the one-worker sweep's test oracle.
func extract(ctx context.Context, g *graph.Graph, opts Options, sweep bool) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := g.NumVertices()
	if int64(n) > 1<<31-1 {
		return nil, fmt.Errorf("core: %d vertices exceed int32 id space", n)
	}

	workers := parallel.WorkerCount(opts.Workers)

	variant := opts.Variant
	if variant == VariantAuto {
		if g.Sorted {
			variant = VariantOptimized
		} else {
			variant = VariantUnoptimized
		}
	}
	if variant == VariantOptimized && !g.Sorted {
		// The paper's Opt variant requires ordered neighbor lists and
		// excludes the sorting time from its measurements; we do the
		// same by sorting a copy up front.
		g = g.SortAdjacency()
	}

	start := time.Now()
	var res *Result
	var err error
	if sweep && workers == 1 && variant == VariantOptimized &&
		opts.Schedule == ScheduleDataflow && !opts.UnsortedQueue {
		res, err = sweepExtract(ctx, g, opts)
	} else {
		res, err = frontierExtract(ctx, g, opts, variant, workers)
	}
	if err != nil {
		return nil, err
	}
	res.Variant = variant
	res.Schedule = opts.Schedule
	res.Edges = res.collectEdges()
	res.Total = time.Since(start)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.RepairMaximality || opts.StitchComponents {
		if err := res.reconcile(ctx, g, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// frontierExtract runs the while loop of Algorithm 1 (lines 11-24) as
// barrier-separated passes of the frontier, checking ctx at every
// iteration boundary.
func frontierExtract(ctx context.Context, g *graph.Graph, opts Options, variant Variant, workers int) (*Result, error) {
	st := &state{
		g:        g,
		opt:      variant == VariantOptimized,
		workers:  workers,
		opts:     opts,
		counters: parallel.NewPadded[workerCounters](workers),
	}
	st.initialize()

	res := &Result{
		NumVertices: g.NumVertices(),
		csetOff:     st.csetOff,
		csetData:    st.csetData,
		csetLen:     st.csetLen,
	}
	for st.frontier.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st.iter++
		if opts.Schedule == ScheduleSynchronous {
			copy(st.snapLen, st.csetLen)
		}
		iterStart := time.Now()
		before := st.totals()
		queued := st.frontier.Len()
		st.frontier.Visit(Grain, st.processParent)
		after := st.totals()
		res.Iterations = append(res.Iterations, IterationStats{
			Index:         st.iter,
			QueueSize:     queued,
			EdgesTested:   after.tested - before.tested,
			EdgesAccepted: after.accepted - before.accepted,
			ScanWork:      after.scan - before.scan,
			Duration:      time.Since(iterStart),
		})
		if opts.OnIteration != nil {
			opts.OnIteration(res.Iterations[len(res.Iterations)-1])
		}
		st.frontier.Advance()
	}
	return res, nil
}

// reconcile runs the StitchComponents and RepairMaximality post-passes
// through incremental.Reconcile over g's edges, with no border
// (DESIGN.md §5), then sorts the grown edge list and rebuilds the
// chordal sets from it in one pass: an ascending list hands each vertex
// its smaller neighbors in ascending order, into sets sized for all of
// them. A canceled pass returns ctx.Err() for the caller to drop r.
func (r *Result) reconcile(ctx context.Context, g *graph.Graph, opts Options) error {
	kept := len(r.Edges)
	edges, c, err := incremental.Reconcile(ctx, r.NumVertices, r.Edges,
		func(fn func(u, v int32) bool) error { g.EdgesWhile(fn); return nil },
		incremental.Passes{Stitch: opts.StitchComponents, Repair: opts.RepairMaximality})
	if err != nil {
		return err
	}
	r.Edges, r.StitchedEdges, r.RepairedEdges = edges, c.Stitched, c.Repaired
	if len(edges) == kept {
		return nil
	}
	graph.SortEdges(r.NumVertices, r.Edges)
	clear(r.csetLen)
	for _, e := range r.Edges {
		r.csetData[r.csetOff[e.V]+int64(r.csetLen[e.V])] = e.U
		r.csetLen[e.V]++
	}
	return nil
}

// totals sums the per-worker counters.
func (st *state) totals() (t workerCounters) {
	for i := range st.counters {
		t.tested += st.counters[i].V.tested
		t.accepted += st.counters[i].V.accepted
		t.scan += st.counters[i].V.scan
	}
	return t
}

// initialize performs lines 2-10 of Algorithm 1: compute every vertex's
// first lowest parent, size the chordal-set storage, and seed Q1 with
// all vertices that are a lowest parent of someone. It also marks the
// vertices the frontier may visit from the start: under the dataflow
// schedule those with no smaller neighbor, whose chordal sets are final
// and empty; under the other schedules, which never wait, all of them.
// Under Opt each vertex's chordal-set region starts out holding its
// sorted smaller neighbors, the candidate parents nextParent walks.
func (st *state) initialize() {
	g := st.g
	n := g.NumVertices()
	st.lp = make([]int32, n)
	st.smallerCount = make([]int32, n)
	if st.opt {
		st.lpIdx = make([]int32, n)
	}
	st.frontier = worklist.NewFrontier(n, st.workers, st.opts.UnsortedQueue)
	dataflow := st.opts.Schedule == ScheduleDataflow

	parallel.For(n, st.workers, 2048, func(worker, v int) {
		nb := g.Neighbors(int32(v))
		if st.opt {
			// Sorted: smaller neighbors form a prefix.
			k, _ := slices.BinarySearch(nb, int32(v))
			st.smallerCount[v] = int32(k)
			if k > 0 {
				st.lp[v] = nb[0]
			} else {
				st.lp[v] = noParent
			}
		} else {
			min := noParent
			count := int32(0)
			for _, w := range nb {
				if w < int32(v) {
					count++
					if min == noParent || w < min {
						min = w
					}
				}
			}
			st.smallerCount[v] = count
			st.lp[v] = min
		}
		if !dataflow || st.lp[v] == noParent {
			st.frontier.Ready(int32(v))
		}
	})

	// Chordal-set storage: vertex v can accept at most smallerCount[v]
	// chordal neighbors, and the counts sum to exactly |E|.
	st.csetOff = make([]int64, n+1)
	for v := 0; v < n; v++ {
		st.csetOff[v+1] = st.csetOff[v] + int64(st.smallerCount[v])
	}
	st.csetData = make([]int32, st.csetOff[n])
	st.csetLen = make([]int32, n)
	if st.opts.Schedule == ScheduleSynchronous {
		st.snapLen = make([]int32, n)
		st.lpIter = make([]int32, n)
	}

	// Q1 <- distinct lowest parents.
	parallel.For(n, st.workers, 2048, func(worker, v int) {
		if st.opt {
			// The region is as long as the smaller-neighbor prefix.
			copy(st.csetData[st.csetOff[v]:st.csetOff[v+1]], g.Neighbors(int32(v)))
		}
		if p := st.lp[v]; p != noParent {
			st.frontier.Push(worker, p)
		}
	})
	st.frontier.Advance()
}

// finalized reports whether v's chordal set can no longer change: v has
// tested all of its own lowest parents. The lp store that publishes
// noParent is sequenced after the final chordal-set store, so observing
// noParent guarantees a stable, complete C[v].
func (st *state) finalized(v int32) bool {
	return atomic.LoadInt32(&st.lp[v]) == noParent
}

// processParent performs lines 12-22 for one queued parent v: scan v's
// neighbors for vertices whose current lowest parent is v, test the
// subset condition, and advance each such vertex. The frontier calls it
// only for a ready parent, so under the dataflow schedule C[v] is
// final, and an advanced child immediately chains through further
// finalized parents.
func (st *state) processParent(worker int, v int32) {
	g := st.g
	nb := g.Neighbors(v)
	ctr := &st.counters[worker].V
	ctr.scan += int64(len(nb))

	start := 0
	if st.opt {
		// Children have larger ids; with sorted adjacency they are the
		// suffix after v's smaller neighbors.
		start = int(st.smallerCount[v])
	}
	for _, w := range nb[start:] {
		if w <= v {
			continue // unoptimized path scans everything
		}
		if atomic.LoadInt32(&st.lp[w]) != v {
			continue
		}
		if st.opts.Schedule == ScheduleSynchronous && st.lpIter[w] == int32(st.iter) {
			// The parent pointer was assigned earlier in this very
			// iteration; deferring the test to the next iteration
			// keeps the strict k-th-parent schedule.
			continue
		}
		st.testChain(worker, v, w)
	}
}

// testChain tests edge (parent, w), then advances w. Under the dataflow
// schedule it keeps testing w against successive finalized parents —
// this intra-iteration chaining is what lets the paper finish R-MAT
// inputs in about three iterations despite vertices with thousands of
// smaller neighbors. Ownership of w is retained for the whole chain:
// other threads act on w only after the final lp store publishes a
// parent this thread is done with.
func (st *state) testChain(worker int, parent, w int32) {
	dataflow := st.opts.Schedule == ScheduleDataflow
	ctr := &st.counters[worker].V
	for {
		// Subset test C[w] ⊆ C[parent] (line 15). This worker owns w,
		// so C[w]'s length is stable; C[parent] may still be growing
		// under the async schedule, so its published length is loaded
		// (under dataflow the parent is finalized and stable; under the
		// synchronous schedule the barrier snapshot is used).
		lw := atomic.LoadInt32(&st.csetLen[w])
		var lp int32
		switch st.opts.Schedule {
		case ScheduleSynchronous:
			lp = st.snapLen[parent]
		default:
			lp = atomic.LoadInt32(&st.csetLen[parent])
		}
		cw := st.csetData[st.csetOff[w] : st.csetOff[w]+int64(lw)]
		cp := st.csetData[st.csetOff[parent] : st.csetOff[parent]+int64(lp)]
		ctr.tested++
		accepted := subsetSorted(cw, cp)
		if accepted {
			// Lines 16-17: C[w] <- C[w] ∪ {parent}; EC <- EC ∪ {e}.
			// Parents are tested in ascending order, so appending
			// keeps C[w] sorted.
			st.csetData[st.csetOff[w]+int64(lw)] = parent
			atomic.StoreInt32(&st.csetLen[w], lw+1)
			ctr.accepted++
		}
		if st.opts.OnEvent != nil {
			st.opts.OnEvent(st.iter, parent, w, accepted)
		}

		// Lines 18-22: find the next lowest parent of w.
		next := st.nextParent(worker, w, parent)
		if next == noParent {
			st.publishParent(w, noParent)
			return
		}
		if dataflow && st.finalized(next) {
			// Chain: the next parent's set is already final, so the
			// test can proceed immediately without losing an
			// iteration.
			parent = next
			continue
		}
		st.publishParent(w, next)
		st.frontier.Push(worker, next)
		return
	}
}

// nextParent returns w's next lowest parent after current, advancing the
// Opt cursor or rescanning the adjacency in the Unopt variant. The Opt
// cursor reads candidate idx from C[w]'s own region, which testChain
// has just touched: candidates 0..idx-1 have been tested, and the at
// most idx parents accepted among them fill slots below idx, so slot
// idx still holds its candidate.
func (st *state) nextParent(worker int, w, current int32) int32 {
	if st.opt {
		idx := st.lpIdx[w] + 1
		st.lpIdx[w] = idx
		if idx < st.smallerCount[w] {
			return st.csetData[st.csetOff[w]+int64(idx)]
		}
		return noParent
	}
	// Unoptimized: rescan the whole neighbor list for the smallest id
	// above the current parent (this is exactly the cost the paper's
	// Opt variant removes).
	nb := st.g.Neighbors(w)
	st.counters[worker].V.scan += int64(len(nb))
	next := noParent
	for _, x := range nb {
		if x > current && x < w && (next == noParent || x < next) {
			next = x
		}
	}
	return next
}

// publishParent hands w to its next parent, or marks it finalized when
// next is noParent. The lpIter write is sequenced before the atomic lp
// store, so a thread that observes the new lp value also observes the
// iteration tag. The ready mark of a finalized w follows the store of
// noParent, so a worker the frontier hands w to also sees the complete
// C[w]. (Under the schedules that never wait, w is ready already.)
func (st *state) publishParent(w, next int32) {
	if st.lpIter != nil {
		st.lpIter[w] = int32(st.iter)
	}
	atomic.StoreInt32(&st.lp[w], next)
	if next == noParent {
		st.frontier.Ready(w)
	}
}

// subsetSorted reports whether sorted slice a is a subset of sorted
// slice b, in O(len(b)) by merge scan ("testing set intersections is
// efficient, linear in terms of the size of the smallest set").
func subsetSorted(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
