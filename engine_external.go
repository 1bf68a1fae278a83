package chordal

import (
	"context"
	"fmt"
	"os"

	"chordal/internal/extio"
	"chordal/internal/graph"
	"chordal/internal/parallel"
)

// externalEngine is the out-of-core strategy: extraction runs against a
// binary-CSR file through internal/extio — adjacency decoded per
// vertex-range shard on demand, a bounded number of shards resident,
// per-shard edges spilled to disk — instead of against a resident
// graph. Registered seventh; selected by Spec{Engine: "external"}.
//
// Identity: the engine reuses the canonical key's fixed shards= and
// stitchonly= tokens (the same semantics-affecting knobs as the sharded
// engine, which it is byte-identical to); ResidentShards is a pure
// residency/speed knob and stays out of the key.
type externalEngine struct{}

// Name implements Engine.
func (externalEngine) Name() string { return EngineExternal }

// Extract implements Engine for callers that already hold the graph in
// memory (Runner-injected inputs, generated sources, uploads): the
// graph is spilled to a temp binary-CSR file and extraction proceeds
// through the one disk-backed path, so every surface exercises the same
// driver. True out-of-core runs enter through ExtractSource instead.
func (e externalEngine) Extract(ctx context.Context, g *Graph, cfg EngineConfig) (*EngineResult, error) {
	if g == nil {
		return nil, fmt.Errorf("chordal: external engine: nil graph")
	}
	f, err := os.CreateTemp("", "chordal-ext-*.bin")
	if err != nil {
		return nil, fmt.Errorf("chordal: external engine: creating temp input: %w", err)
	}
	path := f.Name()
	defer os.Remove(path)
	if err := graph.WriteBinary(f, g); err != nil {
		f.Close()
		return nil, fmt.Errorf("chordal: external engine: spilling input: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return e.ExtractSource(ctx, path, cfg)
}

// ExtractSource implements SourceEngine: extract straight from the
// binary-CSR file at path without ever materializing the whole graph.
func (externalEngine) ExtractSource(ctx context.Context, path string, cfg EngineConfig) (*EngineResult, error) {
	m, err := extio.Open(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()

	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, err
	}
	// The input's statistics come from one bounded-memory pass over the
	// offsets array.
	stats, err := m.Stats()
	if err != nil {
		return nil, err
	}

	xOpts := extio.Options{
		Shards:     cfg.Shards,
		Resident:   cfg.ResidentShards,
		Core:       opts,
		StitchOnly: cfg.ShardStitchOnly,
		Repair:     opts.RepairMaximality,
	}
	if obs := cfg.Observer; obs != nil {
		xOpts.OnShardIteration = func(sh int, it IterationStats) {
			shardIdx := sh
			obs(newIterationEvent(&shardIdx, it))
		}
	}
	r, err := extio.Extract(ctx, m, xOpts)
	if err != nil {
		return nil, err
	}
	sum := newShardSummary(&r.Result, stats.Edges)
	ext := &ExternalSummary{
		Mapped:            r.IO.Mapped,
		BytesMapped:       r.IO.BytesMapped,
		BytesRead:         r.IO.BytesRead,
		SpillBytes:        r.IO.SpillBytes,
		PeakResidentBytes: r.IO.PeakResident,
		ResidentShards:    r.IO.Resident,
		DecodeMillis:      durationMillis(r.IO.DecodeTime),
		KernelMillis:      durationMillis(r.IO.KernelTime),
		OverlapMillis:     durationMillis(r.IO.Overlap),
	}
	inputStats := Stats(stats)
	return &EngineResult{
		Subgraph:   r.Subgraph,
		Shard:      sum,
		External:   ext,
		Workers:    parallel.WorkerCount(cfg.Workers),
		InputStats: &inputStats,
		peo:        r.PEO,
	}, nil
}
