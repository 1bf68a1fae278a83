// Package shard implements sharded extraction: Algorithm 1 runs
// independently on vertex-range shards of the input, and the per-shard
// chordal subgraphs are reconciled into one chordal subgraph of the
// whole graph. This is the architectural step toward inputs larger
// than one node's memory — each shard's extraction touches only the
// shard-induced subgraph, so the full worklist state never needs to be
// resident at once.
//
// # Reconciliation
//
// The input is partitioned with internal/partition's contiguous-range
// part assignment. Edges interior to a shard are decided by that
// shard's own run of core.ExtractContext; edges whose endpoints lie in
// different shards (border edges) are never seen by any kernel and are
// reconciled afterwards in two chordality-preserving passes:
//
//  1. Spanning stitch: a union-find over the merged interior edge sets
//     admits any original edge joining two distinct components. Such an
//     edge is a bridge of the result, a bridge lies on no cycle, so no
//     chordless cycle can appear (the generalization of the paper's
//     remark below Theorem 2 that core.stitchComponents already uses).
//  2. Border admission (skipped under StitchOnly): each remaining
//     border edge {u, v} is tested with the exact dynamic-chordal-graph
//     separator criterion (incremental.Maintainer, the repository's one
//     admission kernel) against the merged subgraph built so far — the
//     admit-if-it-closes-a-triangle idea of the distributed baseline in
//     internal/partition, but with the exact criterion, so chordality
//     is preserved by construction instead of repaired by a
//     cycle-elimination pass afterwards.
//
// Both passes are sequential scans in a deterministic edge order, and
// the per-shard kernels run the schedule-independent dataflow
// discipline, so the merged edge set is byte-identical across worker
// counts. See DESIGN.md §7 for the proof sketch and the maximality
// trade-off.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/incremental"
	"chordal/internal/parallel"
	"chordal/internal/partition"
	"chordal/internal/verify"
)

// Options configures a sharded extraction. Shards is the only required
// field; the zero value of everything else mirrors core.Options
// defaults.
type Options struct {
	// Shards is the number of contiguous vertex-range shards; it is
	// clamped to [1, NumVertices]. One shard degenerates to a plain
	// core extraction (no border edges exist).
	Shards int
	// Core configures the per-shard extraction kernels. Core.Workers is
	// the total worker budget for the whole sharded run — shards run
	// concurrently and divide it, so a budget-leased job never exceeds
	// its lease no matter how many shards it asked for. Core.Schedule
	// should stay ScheduleDataflow when byte-identical output across
	// worker counts matters.
	Core core.Options
	// StitchOnly restricts border reconciliation to the spanning
	// stitch: only bridges join the merged subgraph and all other
	// border edges are dropped. This is the cheapest reconciliation and
	// the one whose output is most directly comparable across shard
	// counts; the default additionally admits border edges that provably
	// keep the subgraph chordal.
	StitchOnly bool
	// Repair runs a final exact repair pass over every absent original
	// edge (interior and border) until none can be added, closing both
	// the §5 maximality gap and the sharding gap. Cost grows with the
	// number of absent edges; intended for small graphs and validation.
	Repair bool
	// OnShardIteration, when non-nil, receives each shard's iteration
	// statistics as they complete. Shards extract concurrently, so it
	// may be invoked concurrently for different shards; the service
	// layer serializes the events it emits from this hook.
	OnShardIteration func(shard int, it core.IterationStats)
}

// ShardStat describes one shard's extraction.
type ShardStat struct {
	// Shard is the shard index in [0, Shards).
	Shard int
	// Vertices is the shard's vertex-range size.
	Vertices int
	// InteriorEdges is the number of input edges interior to the shard
	// (both endpoints inside it).
	InteriorEdges int64
	// ChordalEdges is the size of the shard kernel's chordal edge set.
	ChordalEdges int
	// Iterations is the shard kernel's while-loop iteration count.
	Iterations int
	// Duration is the shard kernel's wall-clock time.
	Duration time.Duration
}

// Result is the merged outcome of a sharded extraction.
type Result struct {
	// NumVertices is the vertex count of the input graph.
	NumVertices int
	// Edges is the merged chordal edge set (U < V, sorted).
	Edges []core.Edge
	// Subgraph is the merged chordal subgraph materialized as a graph.
	Subgraph *graph.Graph
	// Shards holds one entry per shard in index order.
	Shards []ShardStat
	// BorderTotal is the number of input edges crossing shards.
	BorderTotal int
	// StitchedEdges counts edges admitted by the spanning stitch;
	// BorderBridges is the subset of them that cross shards (the rest
	// reconnect components split within a shard by the §5 gap).
	StitchedEdges int
	BorderBridges int
	// BorderAdmitted counts border edges admitted by the exact
	// chordality-preserving pass (0 under StitchOnly).
	BorderAdmitted int
	// RepairedEdges counts edges added by the optional Repair pass.
	RepairedEdges int
	// Chordal is the internal/verify chordality check of the merged
	// subgraph; it must always be true and exists as a self-check of
	// the reconciliation argument.
	Chordal bool
	// PEO is the MCS order of Subgraph that the self-check validated
	// (verify.PEO), kept as the run's certificate of chordality; nil
	// when Chordal is false.
	PEO []int32
	// Total is the wall-clock time of the whole sharded extraction.
	Total time.Duration
}

// NumChordalEdges returns the merged chordal edge count.
func (r *Result) NumChordalEdges() int { return len(r.Edges) }

// EdgeStream iterates every undirected input edge exactly once as
// (u, v) with u < v, in ascending-u, adjacency-position order — the
// order graph.Graph.Edges produces. Reconcile's admission sequence (and
// therefore the merged edge set) is a function of this order, so any
// alternative input representation (extio's disk-backed CSR) must
// reproduce it exactly to stay byte-identical with the in-memory path.
// A stream may be consumed more than once and must replay identically.
type EdgeStream func(fn func(u, v int32)) error

// GraphEdges adapts an in-memory graph to an EdgeStream.
func GraphEdges(g *graph.Graph) EdgeStream {
	return func(fn func(u, v int32)) error {
		g.Edges(fn)
		return nil
	}
}

// Extract runs a sharded extraction with a background context.
func Extract(g *graph.Graph, opts Options) (*Result, error) {
	return ExtractContext(context.Background(), g, opts)
}

// ExtractContext runs a sharded extraction under ctx: partition the
// vertex range, extract per shard concurrently within the worker
// budget, reconcile border edges, and verify the merged subgraph.
// Cancellation is observed between shards' iterations and between the
// merge phases; the first error returned after cancellation is
// ctx.Err(), with no goroutines left behind.
func ExtractContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil graph")
	}
	start := time.Now()
	n := g.NumVertices()
	parts := 1
	if n > 0 {
		parts = partition.ClampParts(n, opts.Shards)
	}
	workers := parallel.WorkerCount(opts.Core.Workers)
	conc := parts
	if conc > workers {
		conc = workers
	}
	perShard := workers / conc
	if perShard < 1 {
		perShard = 1
	}

	res := &Result{NumVertices: n, Shards: make([]ShardStat, parts)}

	// Per-shard kernels. The per-shard options disable the kernel's own
	// post-passes: stitching and repair are global decisions made after
	// the merge, where the reconciled edge set is known.
	runShard := func(p int, sub *graph.Graph, remap func(int32) int32) ([]core.Edge, error) {
		co := opts.Core
		co.Workers = perShard
		co.RepairMaximality = false
		co.StitchComponents = false
		co.OnEvent = nil
		co.OnIteration = nil
		if opts.OnShardIteration != nil {
			co.OnIteration = func(it core.IterationStats) {
				opts.OnShardIteration(p, it)
			}
		}
		r, err := core.ExtractContext(ctx, sub, co)
		if err != nil {
			return nil, err
		}
		edges := make([]core.Edge, len(r.Edges))
		for i, e := range r.Edges {
			edges[i] = core.Edge{U: remap(e.U), V: remap(e.V)}
		}
		res.Shards[p] = ShardStat{
			Shard:         p,
			Vertices:      sub.NumVertices(),
			InteriorEdges: sub.NumEdges(),
			ChordalEdges:  len(r.Edges),
			Iterations:    len(r.Iterations),
			Duration:      r.Total,
		}
		return edges, nil
	}

	var (
		shardEdges = make([][]core.Edge, parts)
		errMu      sync.Mutex
		firstErr   error
	)
	if parts == 1 {
		// Single shard: the induced subgraph is the graph itself — skip
		// the copy and run the kernel directly.
		edges, err := runShard(0, g, func(v int32) int32 { return v })
		if err != nil {
			return nil, err
		}
		shardEdges[0] = edges
	} else {
		parallel.For(parts, conc, 1, func(_, p int) {
			lo, hi := partition.Bounds(n, parts, p)
			ids := make([]int32, 0, hi-lo)
			for v := lo; v < hi; v++ {
				ids = append(ids, v)
			}
			// The keep set is a contiguous ascending range, so local id
			// i maps back to lo+i.
			sub, _ := g.InducedSubgraph(ids)
			edges, err := runShard(p, sub, func(v int32) int32 { return lo + v })
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			shardEdges[p] = edges
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}

	total := 0
	for _, es := range shardEdges {
		total += len(es)
	}
	res.Edges = make([]core.Edge, 0, total)
	for _, es := range shardEdges {
		res.Edges = append(res.Edges, es...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if err := res.Reconcile(ctx, GraphEdges(g), parts, opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Finalize()
	res.Total = time.Since(start)
	return res, nil
}

// Reconcile performs the border passes: spanning stitch, optional exact
// border admission, and the optional full repair. It appends to
// res.Edges and fills the border counters. The per-shard edge sets must
// already be merged into res.Edges in shard index order. An error from
// the edge stream is returned as-is; cancellation aborts silently and is
// surfaced by the caller's own ctx check, as before the stream refactor.
func (res *Result) Reconcile(ctx context.Context, edges EdgeStream, parts int, opts Options) error {
	n := res.NumVertices
	partOf := partition.PartOf(n, max(parts, 1))

	// Pass 1 — spanning stitch. Seed the union-find with the merged
	// interior edges, then admit any original edge bridging two
	// components. Border edges that do not bridge are remembered for
	// pass 2.
	uf := core.NewUnionFind(n)
	for _, e := range res.Edges {
		uf.Union(e.U, e.V)
	}
	var deferred []core.Edge
	err := edges(func(u, v int32) {
		border := parts > 1 && partOf(u) != partOf(v)
		if border {
			res.BorderTotal++
		}
		if uf.Find(u) != uf.Find(v) {
			uf.Union(u, v)
			res.Edges = append(res.Edges, core.Edge{U: u, V: v})
			res.StitchedEdges++
			if border {
				res.BorderBridges++
			}
			return
		}
		if border {
			deferred = append(deferred, core.Edge{U: u, V: v})
		}
	})
	if err != nil {
		return err
	}

	if opts.StitchOnly && !opts.Repair {
		return nil
	}
	if ctx.Err() != nil {
		return nil
	}

	// Passes 2 and 3 delegate admission to incremental.Maintainer — the
	// repository's one implementation of the separator criterion —
	// seeded with the merged subgraph. Each check intersects N(u) and
	// N(v) once and rejects an empty intersection without the search
	// (after pass 1 every candidate's endpoints lie in one component, so
	// an empty N(u) ∩ N(v) cannot separate them). The last marked list
	// stays cached, and exact, across admissions, so the candidates of
	// the ascending-u order that share a hub probe only the other list
	// (DESIGN.md §7). Every rejection is recorded in the deferred queue
	// for the repair fixpoint.
	m := incremental.New(n)
	for _, e := range res.Edges {
		m.Seed(e.U, e.V)
	}

	// Pass 2 — exact border admission in deterministic order. The
	// exact check can walk a large part of the merged graph per edge,
	// so cancellation is observed every few hundred edges: a canceled
	// job must release its budget tokens promptly, not after the whole
	// border drains.
	if !opts.StitchOnly {
		for i, e := range deferred {
			if i%256 == 0 && ctx.Err() != nil {
				return nil
			}
			if ok, _ := m.Admit(e.U, e.V); ok {
				res.Edges = append(res.Edges, e)
				res.BorderAdmitted++
			}
		}
	}

	// Pass 3 — optional full repair to maximality, the merged analogue
	// of core's RepairMaximality post-pass: one scan of the original
	// graph defers every inadmissible absent edge in scan order, then
	// the maintainer retests the queue until a pass admits nothing.
	if opts.Repair {
		m.ResetDeferred() // rebuild the queue in edge-stream scan order
		scanned, aborted := 0, false
		err := edges(func(u, v int32) {
			if aborted {
				return
			}
			if scanned++; scanned%1024 == 0 && ctx.Err() != nil {
				aborted = true
				return
			}
			if ok, _ := m.Admit(u, v); ok {
				res.Edges = append(res.Edges, core.Edge{U: u, V: v})
				res.RepairedEdges++
			}
		})
		if err != nil {
			return err
		}
		if aborted {
			return nil
		}
		admitted, _ := m.RepairContext(ctx) // ctx error rechecked by the caller
		res.Edges = append(res.Edges, admitted...)
		res.RepairedEdges += len(admitted)
	}
	return nil
}

// Finalize sorts the merged edge set into the canonical (U, V) order,
// materializes Subgraph from it, and runs the chordality self-check,
// keeping the validated order in PEO. Callers that assemble a Result
// outside ExtractContext (the out-of-core driver) call it after
// Reconcile.
func (res *Result) Finalize() {
	core.SortEdges(res.NumVertices, res.Edges)
	res.Subgraph = core.EdgesToGraph(res.NumVertices, res.Edges)
	peo, ok := verify.PEO(res.Subgraph)
	if res.Chordal = ok; ok {
		res.PEO = peo
	}
}
