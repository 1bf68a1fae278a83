package chordal

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"chordal/internal/core"
	"chordal/internal/dearing"
	"chordal/internal/elimination"
	"chordal/internal/parallel"
	"chordal/internal/partition"
	"chordal/internal/shard"
	"chordal/internal/verify"
)

// This file defines the pluggable extraction-engine seam. An Engine
// turns an acquired graph into a chordal subgraph; the registry maps
// the Spec's declarative engine name to an implementation, so new
// extraction strategies (out-of-core streaming shards, batched
// multi-graph, remote backends) plug in here once and become reachable
// from the library, the CLI, and the service without touching any of
// them. The built-in engines model the paper's algorithm and its
// baselines: Algorithm 1 whole-graph (parallel), the serial
// Dearing–Shier–Warner baseline (dearing), the distributed-style
// partitioned baseline, sharded and out-of-core extraction with
// chordality-preserving border reconciliation, and the elimination-order
// construction.

// Names of the built-in engines, plus the "none" pseudo-engine that
// disables the extraction stage (acquire/relabel/write-only runs).
const (
	// EngineParallel runs the paper's multithreaded Algorithm 1 on the
	// whole graph (the default engine).
	EngineParallel = "parallel"
	// EnginePartitioned runs the distributed-style partitioned baseline
	// plus cycle cleanup; requires Partitions >= 1.
	EnginePartitioned = "partitioned"
	// EngineSharded runs Algorithm 1 per contiguous vertex-range shard
	// and reconciles border edges chordality-preserving (DESIGN.md §7);
	// requires Shards >= 1.
	EngineSharded = "sharded"
	// EngineDearing runs the serial Dearing-Shier-Warner incremental
	// extractor, the paper's serial baseline, from an explicit start
	// vertex (EngineConfig.Start, default 0); the start vertex is part
	// of the run's identity and recorded in the report. Normalize
	// accepts the older wire name "serial" as an alias.
	EngineDearing = "dearing"
	// EngineElimination builds the chordal subgraph induced by a
	// fill-reducing elimination order (EngineConfig.Order selects the
	// natural or greedy minimum-degree ordering). The result is chordal
	// by construction but not necessarily maximal.
	EngineElimination = "elimination"
	// EngineExternal runs the out-of-core disk-shard driver
	// (internal/extio): the input's binary CSR is mmap'd and decoded per
	// vertex-range shard on demand, at most ResidentShards shards are
	// held in memory, and per-shard edges spill to a temp file before the
	// border reconciliation. Byte-identical to EngineSharded at equal
	// shard counts; requires Shards >= 1. With a .bin file source the
	// Runner skips the acquire stage entirely and the engine reads the
	// file itself; other inputs are spilled to a temp .bin first.
	EngineExternal = "external"
	// EngineNone is not a registered Engine: it marks a Spec that stops
	// after acquire/relabel (and optional write), extracting nothing.
	EngineNone = "none"
)

// Elimination-order names accepted by EngineConfig.Order for the
// elimination engine.
const (
	// OrderNatural eliminates vertices in identity order 0..n-1.
	OrderNatural = "natural"
	// OrderMinDegree eliminates by the classic greedy minimum-degree
	// heuristic (the default for the elimination engine).
	OrderMinDegree = "mindeg"
)

// EngineResult is the outcome of one Engine.Extract call. Subgraph is
// always set; the summary fields are populated per engine.
// PipelineResult embeds it, so a run's result carries it unchanged.
type EngineResult struct {
	// Subgraph is the extracted chordal subgraph.
	Subgraph *Graph
	// Extraction is the parallel kernel's full result (edge set and
	// per-iteration instrumentation); nil for other engines.
	Extraction *Result
	// SerialDuration is the dearing engine's (the serial baseline's)
	// extraction time.
	SerialDuration time.Duration
	// Partition summarizes the partitioned baseline, when used.
	Partition *PartitionSummary
	// Shard summarizes the sharded extraction, when used.
	Shard *ShardSummary
	// Dearing summarizes the dearing engine run, when used.
	Dearing *DearingSummary
	// Elimination summarizes the elimination engine run, when used.
	Elimination *EliminationSummary
	// External summarizes the out-of-core engine's IO behavior, when
	// used (alongside Shard, which carries the reconciliation counters).
	External *ExternalSummary
	// Workers is the worker width the Algorithm 1 kernel ran at
	// (parallel, sharded, external); 0 for the other engines.
	Workers int
	// InputStats, when non-nil, carries the input's Table-I statistics
	// computed by the external engine from the file itself — the
	// substitute for ComputeStats when no input graph is ever resident.
	InputStats *Stats

	// peo is the MCS order of Subgraph validated by the engine's own
	// chordality self-check (sharded, external), or nil; treewidth is
	// the largest label that search assigned.
	peo       []int32
	treewidth int
}

// certificate returns the MCS order of er.Subgraph, the largest label
// the search assigned, and whether the order is a perfect elimination
// ordering, which holds exactly when the subgraph is chordal: the run's
// one certificate of chordality, which the maximality audit and the
// quality metrics reuse. The order and width an engine's self-check
// already validated are handed over; otherwise verify.PEO computes
// them.
func (er *EngineResult) certificate() (peo []int32, width int, ok bool) {
	if er.peo != nil {
		return er.peo, er.treewidth, true
	}
	return verify.PEO(er.Subgraph)
}

// Engine is one extraction strategy. Implementations must be safe for
// concurrent use: one Engine value serves every run that names it.
type Engine interface {
	// Name returns the registry name the Spec selects the engine by.
	Name() string
	// Extract runs the strategy on g under ctx. Cancellation is
	// observed at the engine's natural boundaries; cfg carries the
	// declarative parameters plus the run's Observer.
	Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error)
}

var (
	engineMu sync.RWMutex
	engines  = make(map[string]Engine)
)

// RegisterEngine adds an engine to the registry under e.Name(),
// making it selectable by Spec.Engine. It panics on an empty or
// duplicate name — engine names are global API surface, and a silent
// replacement would change what existing specs mean.
func RegisterEngine(e Engine) {
	name := e.Name()
	engineMu.Lock()
	defer engineMu.Unlock()
	if name == "" || name == EngineNone {
		panic(fmt.Sprintf("chordal: invalid engine name %q", name))
	}
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("chordal: engine %q already registered", name))
	}
	engines[name] = e
}

// LookupEngine returns the registered engine with the given name.
func LookupEngine(name string) (Engine, bool) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	e, ok := engines[name]
	return e, ok
}

// EngineNames returns the sorted names of all registered engines.
func EngineNames() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterEngine(parallelEngine{})
	RegisterEngine(partitionedEngine{})
	RegisterEngine(shardedEngine{})
	RegisterEngine(dearingEngine{})
	RegisterEngine(eliminationEngine{})
	RegisterEngine(externalEngine{})
}

// parallelEngine is the paper's multithreaded Algorithm 1 on the whole
// graph.
type parallelEngine struct{}

// Name implements Engine.
func (parallelEngine) Name() string { return EngineParallel }

// Extract implements Engine with core.ExtractContext.
func (parallelEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	if obs := cfg.Observer; obs != nil {
		opts.OnIteration = func(it IterationStats) { obs(newIterationEvent(nil, it)) }
	}
	r, err := core.ExtractContext(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return &EngineResult{Subgraph: r.ToGraph(), Extraction: r, Workers: parallel.WorkerCount(cfg.Workers)}, nil
}

// dearingEngine is the Dearing-Shier-Warner incremental extractor run
// from a caller-chosen start vertex. The start vertex changes which
// maximal chordal subgraph is found, so it is validated here and kept
// as part of the run's identity rather than silently clamped.
type dearingEngine struct{}

// Name implements Engine.
func (dearingEngine) Name() string { return EngineDearing }

// Extract implements Engine with the dearing package. The extractor is
// a single uninterruptible pass; ctx is only checked on entry.
func (dearingEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if cfg.Start < 0 || (n > 0 && cfg.Start >= n) {
		return nil, fmt.Errorf("chordal: dearing start vertex %d out of range [0, %d)", cfg.Start, n)
	}
	r := dearing.Extract(g, int32(cfg.Start))
	return &EngineResult{
		Subgraph:       r.ToGraph(n),
		SerialDuration: r.Total,
		Dearing:        &DearingSummary{Start: cfg.Start},
	}, nil
}

// eliminationEngine builds the chordal subgraph induced by a
// fill-reducing elimination order. Chordal by construction (the order
// is a PEO of the result), not necessarily maximal.
type eliminationEngine struct{}

// Name implements Engine.
func (eliminationEngine) Name() string { return EngineElimination }

// Extract implements Engine with elimination.ChordalSubgraph. ctx is
// checked on entry and, under the mindeg order, which can take seconds,
// before every elimination; the subgraph construction is one
// uninterrupted O(V + E·ω) pass.
func (eliminationEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name := cfg.Order
	if name == "" {
		name = OrderMinDegree
	}
	var order []int32
	switch name {
	case OrderNatural:
		order = elimination.NaturalOrder(g.NumVertices())
	case OrderMinDegree:
		var err error
		if order, err = elimination.MinDegreeOrder(ctx, g); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("chordal: unknown elimination order %q (want %s|%s)", name, OrderNatural, OrderMinDegree)
	}
	sub, err := elimination.ChordalSubgraph(g, order)
	if err != nil {
		return nil, err
	}
	return &EngineResult{
		Subgraph:    sub,
		Elimination: &EliminationSummary{Order: name},
	}, nil
}

// partitionedEngine is the distributed-style partitioned baseline plus
// cycle cleanup.
type partitionedEngine struct{}

// Name implements Engine.
func (partitionedEngine) Name() string { return EnginePartitioned }

// Extract implements Engine with partition.ExtractAndClean. The
// baseline runs to completion; ctx is only checked on entry.
func (partitionedEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, rep := partition.ExtractAndClean(g, cfg.Partitions)
	return &EngineResult{
		Subgraph: r.ToGraph(g.NumVertices()),
		Partition: &PartitionSummary{
			Parts:          r.Parts,
			InteriorEdges:  r.InteriorEdges,
			BorderAdmitted: r.BorderAdmitted,
			CleanupRemoved: rep.Removed,
			CleanupRounds:  rep.Rounds,
		},
	}, nil
}

// shardedEngine runs Algorithm 1 per contiguous vertex-range shard and
// reconciles the border chordality-preserving (DESIGN.md §7).
type shardedEngine struct{}

// Name implements Engine.
func (shardedEngine) Name() string { return EngineSharded }

// Extract implements Engine with shard.ExtractContext.
func (shardedEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	sOpts, err := cfg.shardOptions()
	if err != nil {
		return nil, err
	}
	r, err := shard.ExtractContext(ctx, g, sOpts)
	if err != nil {
		return nil, err
	}
	sum := newShardSummary(r, g.NumEdges())
	return &EngineResult{Subgraph: r.Subgraph, Shard: sum, Workers: parallel.WorkerCount(cfg.Workers), peo: r.PEO, treewidth: r.Treewidth}, nil
}

// shardOptions resolves the declarative fields onto the options of the
// sharded and external engines, which extract and reconcile alike: per
// -shard iteration events reach the observer tagged with their shard.
func (c EngineConfig) shardOptions() (shard.Options, error) {
	opts, err := c.coreOptions()
	if err != nil {
		return shard.Options{}, err
	}
	sOpts := shard.Options{Shards: c.Shards, Core: opts, StitchOnly: c.ShardStitchOnly, Repair: c.Repair}
	if obs := c.Observer; obs != nil {
		sOpts.OnShardIteration = func(sh int, it IterationStats) {
			shardIdx := sh
			obs(newIterationEvent(&shardIdx, it))
		}
	}
	return sOpts, nil
}

// newShardSummary maps a shard.Result onto the report summary shared by
// the sharded and external engines. The edge cut equals the
// reconciliation pass's border count (both count edges crossing the
// contiguous-range partition — partition.CutEdges is the standalone
// definition, pinned equal by test), expressed also as a fraction of
// the input's edges so partition quality is comparable across inputs.
func newShardSummary(r *shard.Result, inputEdges int64) *ShardSummary {
	sum := &ShardSummary{
		Shards:         len(r.Shards),
		BorderTotal:    r.BorderTotal,
		EdgeCut:        int64(r.BorderTotal),
		StitchedEdges:  r.StitchedEdges,
		BorderBridges:  r.BorderBridges,
		BorderAdmitted: r.BorderAdmitted,
		RepairedEdges:  r.RepairedEdges,
		Chordal:        r.Chordal,
	}
	if inputEdges > 0 {
		sum.EdgeCutPct = 100 * float64(sum.EdgeCut) / float64(inputEdges)
	}
	for _, st := range r.Shards {
		sum.PerShardIterations = append(sum.PerShardIterations, st.Iterations)
		sum.PerShardEdges = append(sum.PerShardEdges, st.ChordalEdges)
		sum.InteriorEdges += st.ChordalEdges
	}
	return sum
}
