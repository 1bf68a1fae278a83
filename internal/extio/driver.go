package extio

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/parallel"
	"chordal/internal/partition"
	"chordal/internal/shard"
)

// Options configures an out-of-core extraction. The embedded
// shard.Options are the in-memory sharded engine's, and at equal values
// the merged edge set is byte-identical to it. Two of them read
// differently here: Core.Workers is the total budget, split one lease
// for IO and the rest for the kernels, and shards extract one at a
// time, so OnShardIteration is never invoked concurrently. Resident,
// SpillDir and the worker split are speed-only.
type Options struct {
	shard.Options
	// Resident bounds how many decoded shards are held in memory at
	// once: the one being extracted plus up to Resident-1 prefetched by
	// the IO lane. <= 0 defaults to 2, the minimum that overlaps decode
	// with extraction; 1 disables prefetch entirely.
	Resident int
	// SpillDir is the directory for the per-shard edge spill file; empty
	// means os.TempDir.
	SpillDir string
}

// IOStats reports the IO behavior of one out-of-core run — the numbers
// the external engine surfaces through the run report.
type IOStats struct {
	// Mapped reports whether the input was memory-mapped (false: the
	// buffered ReadAt fallback served every decode).
	Mapped bool
	// BytesMapped is the input file size when Mapped, else 0.
	BytesMapped int64
	// BytesRead is the total bytes decoded from the input across shard
	// decodes, the edge-stream reconciliation passes, and stats.
	BytesRead int64
	// SpillBytes is the size of the per-shard edge spill file.
	SpillBytes int64
	// PeakResident bounds the decoded shard CSR bytes held at once, the
	// quantity Resident bounds: the largest summed graph.SizeBytes of
	// Resident consecutive shards, which the double buffer holds when
	// the kernel lane has one and the IO lane has decoded the next
	// Resident-1. (The IO lane's in-progress decode transiently adds one
	// more.) It is computed from the shard sizes alone, so it depends
	// on the input and the shard count, never on thread timing.
	PeakResident int64
	// Shards and Resident echo the clamped shard count and residency
	// bound the run used.
	Shards   int
	Resident int
	// DecodeTime and KernelTime are the summed shard decode and kernel
	// wall-clock times; Overlap is how much of DecodeTime the
	// double-buffer hid behind KernelTime (decode+kernel minus the
	// phase's wall-clock, clamped at 0).
	DecodeTime time.Duration
	KernelTime time.Duration
	Overlap    time.Duration
}

// Result is a sharded-extraction result plus the IO statistics of the
// out-of-core run that produced it.
type Result struct {
	shard.Result
	IO IOStats
}

// decoded is one shard handed from the IO lane to the kernel lane.
type decoded struct {
	p      int
	lo     int32
	sub    *graph.Graph
	decode time.Duration
	err    error
}

// Extract runs the disk-shard driver on m: decode contiguous
// vertex-range shards (at most opts.Resident resident, shard N+1's
// decode overlapping shard N's extraction), run shard.Options.RunShard
// on each, spill per-shard subgraph edges to a temp file, then merge
// and reconcile borders streaming the input's edges from disk. The
// merged edge set is byte-identical to shard.ExtractContext on the same
// graph at equal shard counts.
func Extract(ctx context.Context, m *MappedCSR, opts Options) (*Result, error) {
	start := time.Now()
	startRead := m.BytesRead()
	n := m.NumVertices()
	parts := 1
	if n > 0 {
		parts = partition.ClampParts(n, opts.Shards)
	}
	workers := parallel.WorkerCount(opts.Core.Workers)
	resident := opts.Resident
	if resident <= 0 {
		resident = 2
	}

	res := &Result{Result: shard.Result{NumVertices: n, Shards: make([]shard.ShardStat, parts)}}
	res.IO = IOStats{Mapped: m.Mapped(), Shards: parts, Resident: resident}
	if m.Mapped() {
		res.IO.BytesMapped = m.SizeBytes()
	}

	// kernel runs shard p's kernel through shard.Options.RunShard, timing
	// it for IOStats.KernelTime.
	kernel := func(p int, sub *graph.Graph, lo int32, kernelWorkers int) ([]core.Edge, error) {
		kt := time.Now()
		edges, st, err := opts.RunShard(ctx, p, sub, lo, kernelWorkers)
		res.IO.KernelTime += time.Since(kt)
		res.Shards[p] = st
		return edges, err
	}

	if parts == 1 {
		// One shard: nothing to stream or spill. Decode the whole graph
		// and run the kernel directly, like the in-memory engine's
		// single-shard path (which skips the induced-subgraph copy).
		dt := time.Now()
		g, err := m.Graph()
		if err != nil {
			return nil, err
		}
		res.IO.DecodeTime = time.Since(dt)
		res.IO.PeakResident = g.SizeBytes()
		edges, err := kernel(0, g, 0, workers)
		if err != nil {
			return nil, err
		}
		res.Edges = edges
	} else {
		if err := extractStreaming(ctx, m, res, parts, resident, workers, kernel, opts.SpillDir); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if err := res.Reconcile(ctx, m.Edges, parts, opts.Options); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Finalize()
	res.IO.BytesRead = m.BytesRead() - startRead
	res.Total = time.Since(start)
	return res, nil
}

// extractStreaming is the multi-shard lane split: one goroutine (the IO
// lease) decodes shards in index order into a channel whose capacity
// enforces the residency bound, while the caller's goroutine runs the
// kernels with the remaining workers and spills each shard's edges.
func extractStreaming(ctx context.Context, m *MappedCSR, res *Result, parts, resident, workers int,
	kernel func(int, *graph.Graph, int32, int) ([]core.Edge, error), spillDir string) error {
	n := res.NumVertices
	// One parallel lease goes to the IO lane; the kernels get the rest.
	kernelWorkers := max(workers-1, 1)

	sp, err := newSpill(spillDir)
	if err != nil {
		return err
	}
	defer sp.close()

	// ioCtx releases a blocked IO lane if the kernel lane bails early.
	ioCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Capacity resident-1: the channel buffer plus the shard the kernel
	// lane holds bound the decoded shards in flight to `resident`. (The
	// IO lane's in-progress decode transiently adds one more.)
	ch := make(chan decoded, resident-1)
	go func() {
		defer close(ch)
		for p := 0; p < parts; p++ {
			if ioCtx.Err() != nil {
				return
			}
			lo, hi := partition.Bounds(n, parts, p)
			dt := time.Now()
			sub, err := m.Shard(lo, hi)
			d := decoded{p: p, lo: lo, sub: sub, decode: time.Since(dt), err: err}
			select {
			case ch <- d:
				if err != nil {
					return
				}
			case <-ioCtx.Done():
				return
			}
		}
	}()

	phase := time.Now()
	sizes := make([]int64, parts)
	for d := range ch {
		if d.err != nil {
			return d.err
		}
		if err := ctx.Err(); err != nil {
			cancel()
			for range ch { // drain so the IO goroutine exits
			}
			return err
		}
		res.IO.DecodeTime += d.decode
		sizes[d.p] = d.sub.SizeBytes()
		edges, err := kernel(d.p, d.sub, d.lo, kernelWorkers)
		if err != nil {
			cancel()
			for range ch {
			}
			return err
		}
		// Evict: drop the decoded adjacency (the loop variable is the
		// only reference) and spill the extracted edges to disk instead
		// of accumulating them on the heap.
		if err := sp.write(edges); err != nil {
			cancel()
			for range ch {
			}
			return err
		}
	}
	wall := time.Since(phase)
	if hidden := res.IO.DecodeTime + res.IO.KernelTime - wall; hidden > 0 {
		res.IO.Overlap = hidden
	}
	res.IO.PeakResident = residentPeak(sizes, resident)
	res.IO.SpillBytes = sp.bytes

	// The IO lane produced shards in index order and the kernel lane
	// consumed them in arrival order, so the spill file already holds
	// the per-shard edge sets in shard index order — the same merge
	// order shard.ExtractContext uses.
	merged, err := sp.readAll()
	if err != nil {
		return err
	}
	res.Edges = merged
	return nil
}

// residentPeak returns the largest sum of resident consecutive entries
// of sizes, the shard sizes in index order: the most the double buffer
// holds at once, since the kernel lane takes shards in index order and
// the IO lane decodes at most resident-1 ahead of it.
func residentPeak(sizes []int64, resident int) int64 {
	var sum, peak int64
	for p, s := range sizes {
		sum += s
		if p >= resident {
			sum -= sizes[p-resident]
		}
		peak = max(peak, sum)
	}
	return peak
}

// spill is the temp file holding extracted per-shard edges: raw
// little-endian (u, v) int32 pairs appended in shard index order.
type spill struct {
	f     *os.File
	bw    *bufio.Writer
	bytes int64
	count int
}

func newSpill(dir string) (*spill, error) {
	f, err := os.CreateTemp(dir, "chordal-spill-*.edges")
	if err != nil {
		return nil, fmt.Errorf("extio: creating spill file: %w", err)
	}
	return &spill{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *spill) write(edges []core.Edge) error {
	var rec [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(e.V))
		if _, err := s.bw.Write(rec[:]); err != nil {
			return fmt.Errorf("extio: writing spill: %w", err)
		}
	}
	s.bytes += int64(len(edges)) * 8
	s.count += len(edges)
	return nil
}

// readAll flushes the writer and reads the whole spill back as one edge
// slice — the merge of the per-shard edge sets in write order.
func (s *spill) readAll() ([]core.Edge, error) {
	if err := s.bw.Flush(); err != nil {
		return nil, fmt.Errorf("extio: flushing spill: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	edges := make([]core.Edge, 0, s.count)
	br := bufio.NewReaderSize(s.f, 1<<20)
	var rec [8]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("extio: reading spill: %w", err)
		}
		edges = append(edges, core.Edge{
			U: int32(binary.LittleEndian.Uint32(rec[0:4])),
			V: int32(binary.LittleEndian.Uint32(rec[4:8])),
		})
	}
	if len(edges) != s.count {
		return nil, fmt.Errorf("extio: spill holds %d edges, wrote %d", len(edges), s.count)
	}
	return edges, nil
}

// close removes the spill file; safe to call after any failure point.
func (s *spill) close() {
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
}
