// Package extio is the out-of-core IO layer behind the external
// engine: it exposes the library's binary CSR format (graph.WriteBinary)
// lazily from disk, so extraction can run on graphs whose CSR does not
// fit in memory.
//
// MappedCSR opens a .bin file and decodes adjacency per vertex range on
// demand — the file is never materialized as a whole *graph.Graph. On
// unix the file is mmap'd (pages are file-backed, so the OS evicts them
// under memory pressure and they never count against the Go heap); on
// other platforms, or when mapping fails, a buffered ReadAt fallback
// reads exactly the byte ranges a decode needs. Both paths return
// byte-identical results.
//
// Extract (driver.go) streams contiguous vertex-range shards through the
// internal/shard per-shard kernel with a bounded number of shards
// resident, spilling per-shard subgraph edges to a temp file and merging
// them for the border reconciliation pass.
package extio

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"

	"chordal/internal/graph"
)

// A binary CSR file is graph.BinaryHeaderSize header bytes, decoded by
// graph.DecodeBinaryHeader, then n+1 little-endian int64 offsets and
// adjLen little-endian int32 adjacency entries.
const headerSize = graph.BinaryHeaderSize

// MappedCSR is a lazily-decoded view of a binary CSR file. It is safe
// for concurrent readers. Close releases the mapping and the file.
type MappedCSR struct {
	f    *os.File
	size int64
	// data is the whole-file mapping; nil in fallback (ReadAt) mode.
	data []byte

	n      int
	adjLen int64
	sorted bool

	// bytesRead counts bytes decoded through this view (both modes),
	// the IO-volume statistic the external engine reports.
	bytesRead atomic.Int64
}

// Open opens path as a binary CSR, validates its header and exact size,
// and memory-maps it when the platform allows, falling back to buffered
// reads otherwise.
func Open(path string) (*MappedCSR, error) { return open(path, true) }

// OpenFallback opens path with the buffered ReadAt reader even on
// platforms that support mmap — the parity half of the reader tests and
// the escape hatch when mapping is undesirable.
func OpenFallback(path string) (*MappedCSR, error) { return open(path, false) }

func open(path string, tryMap bool) (*MappedCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := newMapped(f, tryMap)
	if err != nil {
		// Every error path releases the file (and newMapped releases any
		// mapping it made) — no partial map leaks.
		f.Close()
		return nil, err
	}
	return m, nil
}

func newMapped(f *os.File, tryMap bool) (*MappedCSR, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < headerSize {
		return nil, fmt.Errorf("extio: %s: truncated header (%d bytes)", f.Name(), size)
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("extio: %s: reading header: %w", f.Name(), err)
	}
	n, adjLen, sorted, err := graph.DecodeBinaryHeader(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("extio: %s: %w", f.Name(), err)
	}
	// The format is fully determined by the header, so the file size must
	// match exactly: anything shorter is truncated, anything longer is
	// trailing garbage. Checking up front means decodes never run off the
	// end of the mapping.
	want := int64(headerSize) + (n+1)*8 + adjLen*4
	if size != want {
		return nil, fmt.Errorf("extio: %s: size %d does not match header (want %d): truncated or corrupt", f.Name(), size, want)
	}
	m := &MappedCSR{f: f, size: size, n: int(n), adjLen: adjLen, sorted: sorted}
	if tryMap && size > 0 {
		if data, err := mapFile(f, size); err == nil {
			m.data = data
		}
		// Mapping failures are not fatal: the ReadAt fallback serves the
		// same bytes.
	}
	return m, nil
}

// Close releases the mapping (if any) and the underlying file.
func (m *MappedCSR) Close() error {
	var first error
	if m.data != nil {
		first = unmapFile(m.data)
		m.data = nil
	}
	if m.f != nil {
		if err := m.f.Close(); first == nil {
			first = err
		}
		m.f = nil
	}
	return first
}

// NumVertices returns the vertex count recorded in the header.
func (m *MappedCSR) NumVertices() int { return m.n }

// NumEdges returns the undirected edge count (adjLen / 2).
func (m *MappedCSR) NumEdges() int64 { return m.adjLen / 2 }

// Sorted reports the header's sorted-adjacency flag.
func (m *MappedCSR) Sorted() bool { return m.sorted }

// SizeBytes returns the file size — the bytes mapped when Mapped().
func (m *MappedCSR) SizeBytes() int64 { return m.size }

// Mapped reports whether the file is memory-mapped (false means the
// buffered ReadAt fallback is serving decodes).
func (m *MappedCSR) Mapped() bool { return m.data != nil }

// BytesRead returns the total bytes decoded through this view so far.
func (m *MappedCSR) BytesRead() int64 { return m.bytesRead.Load() }

// readRange returns the file bytes [off, off+length): a direct subslice
// of the mapping, or the provided scratch buffer filled by ReadAt.
func (m *MappedCSR) readRange(off, length int64, scratch []byte) ([]byte, error) {
	m.bytesRead.Add(length)
	if m.data != nil {
		return m.data[off : off+length], nil
	}
	if int64(cap(scratch)) < length {
		scratch = make([]byte, length)
	}
	scratch = scratch[:length]
	if _, err := m.f.ReadAt(scratch, off); err != nil {
		return nil, fmt.Errorf("extio: reading %d bytes at %d: %w", length, off, err)
	}
	return scratch, nil
}

// Offsets decodes offsets[lo..hi] (inclusive of hi, so hi-lo+1 values —
// the CSR bounds of vertices [lo, hi)) into dst, reallocating as needed.
// It checks what graph.ReadBinary checks of the same values: they never
// decrease or pass the adjacency length, offsets[0] is 0 and offsets[n]
// is the adjacency length, so every adjacency range they bound lies
// inside the file.
func (m *MappedCSR) Offsets(lo, hi int, dst []int64) ([]int64, error) {
	if lo < 0 || hi > m.n || lo > hi {
		return nil, fmt.Errorf("extio: offset range [%d, %d] out of [0, %d]", lo, hi, m.n)
	}
	count := hi - lo + 1
	raw, err := m.readRange(int64(headerSize)+int64(lo)*8, int64(count)*8, nil)
	if err != nil {
		return nil, err
	}
	if cap(dst) < count {
		dst = make([]int64, count)
	}
	dst = dst[:count]
	last := int64(0)
	for i := range dst {
		o := int64(binary.LittleEndian.Uint64(raw[i*8:]))
		if o < last || o > m.adjLen {
			return nil, fmt.Errorf("extio: offset %d at vertex %d decreases or passes the adjacency length %d", o, lo+i, m.adjLen)
		}
		dst[i] = o
		last = o
	}
	if (lo == 0 && dst[0] != 0) || (hi == m.n && last != m.adjLen) {
		return nil, fmt.Errorf("extio: offsets run from %d to %d, want 0 to the adjacency length %d", dst[0], last, m.adjLen)
	}
	return dst, nil
}

// adjacency decodes Adj[from:to) into dst, reallocating as needed,
// and checks every entry is a vertex id in [0, n).
func (m *MappedCSR) adjacency(from, to int64, dst []int32) ([]int32, error) {
	count := to - from
	raw, err := m.readRange(int64(headerSize)+int64(m.n+1)*8+from*4, count*4, nil)
	if err != nil {
		return nil, err
	}
	if int64(cap(dst)) < count {
		dst = make([]int32, count)
	}
	dst = dst[:count]
	for i := range dst {
		a := int32(binary.LittleEndian.Uint32(raw[i*4:]))
		if a < 0 || int(a) >= m.n {
			return nil, fmt.Errorf("extio: adjacency entry %d is vertex %d, outside [0, %d)", from+int64(i), a, m.n)
		}
		dst[i] = a
	}
	return dst, nil
}

// Shard decodes the induced subgraph of the contiguous vertex range
// [lo, hi) with local ids 0..hi-lo-1 (global id = lo + local id),
// touching only that range's slice of the offsets and adjacency arrays,
// and cuts it with graph.RangeCSR, the slicer the in-memory sharded
// engine's Graph.Range applies — the byte-identity of the external
// engine depends on the two cutting the same shard. A shard that fails
// graph.CheckSimpleSymmetric is an error, because file input is
// untrusted; an edge whose reverse is missing from another shard is not
// seen here.
func (m *MappedCSR) Shard(lo, hi int32) (*graph.Graph, error) {
	if lo < 0 || int(hi) > m.n || lo > hi {
		return nil, fmt.Errorf("extio: shard range [%d, %d) out of [0, %d)", lo, hi, m.n)
	}
	offs, err := m.Offsets(int(lo), int(hi), nil)
	if err != nil {
		return nil, err
	}
	adj, err := m.adjacency(offs[0], offs[hi-lo], nil)
	if err != nil {
		return nil, err
	}
	sub := graph.RangeCSR(offs, adj, lo, hi)
	if err := sub.CheckSimpleSymmetric(); err != nil {
		return nil, fmt.Errorf("extio: shard [%d, %d), in shard-local ids: %w", lo, hi, err)
	}
	return sub, nil
}

// Graph decodes the entire file into an in-memory graph, byte-identical
// to graph.ReadBinary and refused where it would be refused. The
// single-shard driver path uses it: with one partition there is nothing
// to stream, and the in-memory sharded engine likewise runs the kernel
// on the whole graph uncopied.
func (m *MappedCSR) Graph() (*graph.Graph, error) {
	offs, err := m.Offsets(0, m.n, nil)
	if err != nil {
		return nil, err
	}
	adj, err := m.adjacency(0, m.adjLen, nil)
	if err != nil {
		return nil, err
	}
	g := &graph.Graph{Offsets: offs, Adj: adj, Sorted: m.sorted}
	if err := g.CheckSimpleSymmetric(); err != nil {
		return nil, fmt.Errorf("extio: %w", err)
	}
	return g, nil
}

// edgeChunkAdj bounds the adjacency entries decoded per Edges chunk.
const edgeChunkAdj = 1 << 18

// Edges streams every undirected edge exactly once as (u, v) with
// u < v, in ascending-u, adjacency-position order — the same order
// graph.Graph.Edges produces, which the shard reconciliation pass
// depends on. Adjacency is decoded in bounded chunks, never held whole.
// When fn returns false, Edges returns nil without decoding another
// chunk: it is an incremental.EdgeStream.
func (m *MappedCSR) Edges(fn func(u, v int32) bool) error {
	var offBuf []int64
	var adjBuf []int32
	const vertexChunk = 1 << 16
	for lo := 0; lo < m.n; lo += vertexChunk {
		hi := min(lo+vertexChunk, m.n)
		offs, err := m.Offsets(lo, hi, offBuf)
		if err != nil {
			return err
		}
		offBuf = offs
		// Walk [lo, hi) in sub-ranges whose adjacency fits the chunk
		// bound (single huge vertices get a range of their own).
		for v := lo; v < hi; {
			end := v + 1
			for end < hi && offs[end+1-lo]-offs[v-lo] <= edgeChunkAdj {
				end++
			}
			adj, err := m.adjacency(offs[v-lo], offs[end-lo], adjBuf)
			if err != nil {
				return err
			}
			adjBuf = adj
			base := offs[v-lo]
			for u := v; u < end; u++ {
				for _, w := range adj[offs[u-lo]-base : offs[u+1-lo]-base] {
					if w > int32(u) && !fn(int32(u), w) {
						return nil
					}
				}
			}
			v = end
		}
	}
	return nil
}

// Stats computes the input's degree statistics (the Table-I numbers)
// from one bounded-memory pass over the offsets array — the out-of-core
// substitute for graph.ComputeStats.
func (m *MappedCSR) Stats() (graph.Stats, error) {
	s := graph.Stats{Vertices: m.n, Edges: m.adjLen / 2}
	if m.n == 0 {
		return s, nil
	}
	var buf []int64
	sum, sumSq := 0.0, 0.0
	const chunk = 1 << 16
	for lo := 0; lo < m.n; lo += chunk {
		hi := min(lo+chunk, m.n)
		offs, err := m.Offsets(lo, hi, buf)
		if err != nil {
			return s, err
		}
		buf = offs
		for v := 0; v < hi-lo; v++ {
			d := float64(offs[v+1] - offs[v])
			sum += d
			sumSq += d * d
			if int(d) > s.MaxDegree {
				s.MaxDegree = int(d)
			}
		}
	}
	s.AvgDegree = sum / float64(m.n)
	s.DegreeVariance = sumSq/float64(m.n) - s.AvgDegree*s.AvgDegree
	s.EdgesByVertices = float64(s.Edges) / float64(m.n)
	return s, nil
}
