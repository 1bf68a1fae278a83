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
// The input is cut into contiguous vertex ranges by partition.Bounds,
// each range by graph.Graph.Range. Edges interior to a shard are
// decided by that shard's own run of core.ExtractContext; edges whose
// endpoints lie in different shards (border edges, classified by
// partition.PartOf, the inverse of Bounds) are never seen by any
// kernel and are reconciled afterwards by incremental.Reconcile, the
// passes core's StitchComponents and RepairMaximality also run, given
// the shard-crossing predicate:
//
//  1. Spanning stitch: a union-find over the merged interior edge sets
//     admits any original edge joining two distinct components. Such an
//     edge is a bridge of the result, a bridge lies on no cycle, so no
//     chordless cycle can appear (the generalization of the paper's
//     remark below Theorem 2).
//  2. Border admission (skipped under StitchOnly): each remaining
//     border edge {u, v} is tested with the exact dynamic-chordal-graph
//     separator criterion against the merged subgraph built so far —
//     the admit-if-it-closes-a-triangle idea of the distributed
//     baseline in internal/partition, but with the exact criterion, so
//     chordality is preserved by construction instead of repaired by a
//     cycle-elimination pass afterwards.
//  3. Repair (only under Repair): every absent original edge, interior
//     or border, is offered to the same criterion and the rejections
//     are retested until none can be added.
//
// The passes are sequential scans in a deterministic edge order, and
// the per-shard kernels run the schedule-independent dataflow
// discipline, so the merged edge set is byte-identical across worker
// counts. With one shard there is no border, and the result is core's
// with StitchComponents (and RepairMaximality under Repair). See
// DESIGN.md §7 for the proof sketch and the maximality trade-off.
package shard

import (
	"context"
	"fmt"
	"sync"

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
	// concurrently and divide it, so a width-bounded job never exceeds
	// its width no matter how many shards it asked for. Core.Schedule
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
	// BorderTotal is the number of input edges crossing shards: those
	// whose endpoints lie in different partition.Bounds slices.
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
	// (verify.PEO), kept as the run's certificate of chordality, and
	// Treewidth the largest label that search assigned, the treewidth
	// of Subgraph; nil and 0 when Chordal is false.
	PEO       []int32
	Treewidth int
}

// NumChordalEdges returns the merged chordal edge count.
func (r *Result) NumChordalEdges() int { return len(r.Edges) }

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

	var (
		shardEdges = make([][]core.Edge, parts)
		errMu      sync.Mutex
		firstErr   error
	)
	if parts == 1 {
		// Single shard: the range is the whole graph — skip the copy and
		// run the kernel directly.
		edges, st, err := opts.RunShard(ctx, 0, g, 0, perShard)
		if err != nil {
			return nil, err
		}
		shardEdges[0], res.Shards[0] = edges, st
	} else {
		parallel.For(parts, conc, 1, func(_, p int) {
			lo, hi := partition.Bounds(n, parts, p)
			edges, st, err := opts.RunShard(ctx, p, g.Range(lo, hi), lo, perShard)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			shardEdges[p], res.Shards[p] = edges, st
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

	graphEdges := func(fn func(u, v int32) bool) error { g.EdgesWhile(fn); return nil }
	if err := res.Reconcile(ctx, graphEdges, parts, opts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Finalize()
	return res, nil
}

// RunShard runs the per-shard kernel: core.ExtractContext on sub, the
// subgraph induced by a contiguous vertex range that starts at global
// id lo (graph.RangeCSR's cut), on workers workers. The kernel's own post-passes and OnEvent
// are off, because stitching and repair are global decisions made after
// the merge, and OnShardIteration receives its iterations as shard p's.
// It returns the chordal edges in global ids and the shard's stats.
// ExtractContext and the out-of-core driver in internal/extio both run
// their kernels through it, so the two engines' kernels agree.
func (o Options) RunShard(ctx context.Context, p int, sub *graph.Graph, lo int32, workers int) ([]core.Edge, ShardStat, error) {
	co := o.Core
	co.Workers = workers
	co.RepairMaximality = false
	co.StitchComponents = false
	co.OnEvent = nil
	co.OnIteration = nil
	if o.OnShardIteration != nil {
		co.OnIteration = func(it core.IterationStats) { o.OnShardIteration(p, it) }
	}
	r, err := core.ExtractContext(ctx, sub, co)
	if err != nil {
		return nil, ShardStat{}, err
	}
	edges := make([]core.Edge, len(r.Edges))
	for i, e := range r.Edges {
		edges[i] = core.Edge{U: lo + e.U, V: lo + e.V}
	}
	return edges, ShardStat{
		Shard:         p,
		Vertices:      sub.NumVertices(),
		InteriorEdges: sub.NumEdges(),
		ChordalEdges:  len(r.Edges),
		Iterations:    len(r.Iterations),
	}, nil
}

// Reconcile runs the border passes through incremental.Reconcile: the
// spanning stitch, the exact border admission unless opts.StitchOnly,
// and the full repair under opts.Repair, with an edge crossing shards
// when its endpoints lie in different parts of the parts-way
// contiguous partition. It appends to res.Edges and fills the border
// counters. The per-shard edge sets must already be merged into
// res.Edges in shard index order, and edges must stream the input in
// graph.Graph.Edges order. An error from the stream is returned as is;
// a canceled pass returns ctx.Err().
func (res *Result) Reconcile(ctx context.Context, edges incremental.EdgeStream, parts int, opts Options) error {
	passes := incremental.Passes{Stitch: true, AdmitBorder: !opts.StitchOnly, Repair: opts.Repair}
	if parts > 1 {
		partOf := partition.PartOf(res.NumVertices, parts)
		passes.Border = func(u, v int32) bool { return partOf(u) != partOf(v) }
	}
	merged, c, err := incremental.Reconcile(ctx, res.NumVertices, res.Edges, edges, passes)
	res.Edges = merged
	res.StitchedEdges, res.BorderBridges, res.BorderTotal = c.Stitched, c.BorderBridges, c.BorderTotal
	res.BorderAdmitted, res.RepairedEdges = c.BorderAdmitted, c.Repaired
	return err
}

// Finalize sorts the merged edge set into the canonical (U, V) order,
// materializes Subgraph from it, and runs the chordality self-check,
// keeping the validated order in PEO. Callers that assemble a Result
// outside ExtractContext (the out-of-core driver) call it after
// Reconcile.
func (res *Result) Finalize() {
	graph.SortEdges(res.NumVertices, res.Edges)
	res.Subgraph = graph.FromSortedEdges(res.NumVertices, res.Edges)
	peo, width, ok := verify.PEO(res.Subgraph)
	if res.Chordal = ok; ok {
		res.PEO, res.Treewidth = peo, width
	}
}
