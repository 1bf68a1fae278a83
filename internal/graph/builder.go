package graph

import (
	"math"
	"slices"
	"sort"

	"chordal/internal/parallel"
)

// Builder accumulates undirected edges and produces a deduplicated,
// self-loop-free CSR Graph. It tolerates duplicate insertions and both
// orientations of the same edge, which is what the R-MAT generator emits.
// A Builder is not safe for concurrent use; parallel generators should
// build per-worker edge lists and combine them with BuildFromEdges.
type Builder struct {
	n  int
	us []int32
	vs []int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self loops are dropped.
// Out-of-range endpoints panic: they indicate a generator bug.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic("graph: AddEdge endpoint out of range")
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// Build produces the deduplicated CSR graph with sorted adjacency lists.
func (b *Builder) Build() *Graph {
	return BuildFromEdges(b.n, b.us, b.vs)
}

// BuildWorkers is Build bounded to the given worker count; workers <= 0
// selects the automatic memory-budgeted count. Budget-leased callers
// use this so graph materialization stays inside their lease.
func (b *Builder) BuildWorkers(workers int) *Graph {
	return buildFromEdges(b.n, b.us, b.vs, workers)
}

// scatterWorkers picks the worker count for the count and scatter
// passes over m edges into n buckets. Each worker carries a private
// n-entry count array, so the count is bounded both by the available
// parallelism and by a memory budget proportional to the edge data
// itself (at most ~2 extra int32 per directed edge slot).
func scatterWorkers(n, m int) int {
	workers := parallel.WorkersFor(m, 1<<14)
	if n > 0 {
		if byBudget := (4*m + n - 1) / n; workers > byBudget {
			workers = byBudget
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// countTotals sums per-worker per-vertex counts into a per-vertex
// degree array. workers bounds the pass (<= 0 means automatic).
func countTotals(n, workers int, counts [][]int32) []int64 {
	deg := make([]int64, n)
	parallel.ForVerticesN(n, workers, func(v int) {
		var d int64
		for w := range counts {
			d += int64(counts[w][v])
		}
		deg[v] = d
	})
	return deg
}

// seedCursors turns per-worker per-vertex counts into per-worker write
// cursors in dst: dst[w][v] = base[v] + exclusive prefix of
// counts[0..w-1][v], so workers writing their own chunk in order fill
// each vertex's bucket contiguously and without atomics. When every
// position fits in int32, callers pass dst aliasing counts to convert
// in place, avoiding a second set of per-worker arrays entirely.
func seedCursors[C int32 | int64](n, workers int, counts [][]int32, base []int64, dst [][]C) {
	parallel.ForVerticesN(n, workers, func(v int) {
		pos := base[v]
		for w := range counts {
			c := counts[w][v]
			dst[w][v] = C(pos)
			pos += int64(c)
		}
	})
}

// newCursorSet allocates per-worker cursor arrays of the given width.
func newCursorSet[C int32 | int64](n, workers int) [][]C {
	dst := make([][]C, workers)
	parallel.ForChunks(workers, workers, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			dst[w] = make([]C, n)
		}
	})
	return dst
}

// scatterHalf writes each canonical half-edge's larger endpoint into
// its smaller endpoint's bucket. The edge chunking must match the
// counting pass that produced the cursors.
func scatterHalf[C int32 | int64](us, vs []int32, workers int, cursors [][]C, lowAdj []int32) {
	parallel.ForChunks(len(us), workers, func(w, lo, hi int) {
		cur := cursors[w]
		for i := lo; i < hi; i++ {
			a, b := min(us[i], vs[i]), max(us[i], vs[i])
			if a == b {
				continue
			}
			lowAdj[cur[a]] = b
			cur[a]++
		}
	})
}

// scatterSmaller fills every vertex's smaller-neighbor region by
// walking the compacted half-edge array in ascending (u, v) order.
// The range chunking must match the counting pass that produced the
// cursors; together with the per-worker cursor bases it guarantees
// each region is written in ascending-u order.
func scatterSmaller[C int32 | int64](n, total, workers int, edgeOff []int64, edgeAdj, adj []int32, cursors [][]C) {
	parallel.ForChunks(total, workers, func(w, lo, hi int) {
		cur := cursors[w]
		// Owner of entry lo: the last u with edgeOff[u] <= lo.
		u := int32(sort.Search(n, func(x int) bool { return edgeOff[x+1] > int64(lo) }))
		for i := lo; i < hi; {
			end := hi
			if e := edgeOff[u+1]; e < int64(end) {
				end = int(e)
			}
			for ; i < end; i++ {
				b := edgeAdj[i]
				adj[cur[b]] = u
				cur[b]++
			}
			if i < hi {
				u++
			}
		}
	})
}

// BuildFromEdgesWorkers is BuildFromEdges bounded to the given worker
// count in every construction phase; workers <= 0 selects the automatic
// memory-budgeted count. This is the entry point for budget-leased
// callers: a service job granted k worker tokens materializes graphs at
// width k instead of machine width.
func BuildFromEdgesWorkers(n int, us, vs []int32, workers int) *Graph {
	return buildFromEdges(n, us, vs, workers)
}

// BuildFromEdges constructs a simple undirected CSR graph with sorted
// adjacency lists from raw endpoint slices, dropping self loops and
// duplicate edges (in either orientation). The input slices are not
// modified.
//
// The construction is parallel in every phase and touches each edge in
// canonical (min, max) orientation only, halving the count, scatter and
// sort volume of the naive both-directions build:
//
//  1. workers count canonical half-edges per smaller endpoint into
//     private arrays over disjoint edge chunks;
//  2. a parallel prefix sum yields the half-edge CSR offsets and
//     per-worker write cursors, and a partitioned scatter places each
//     larger endpoint into its smaller endpoint's bucket (no atomics:
//     the cursor bases make all write ranges disjoint);
//  3. each bucket is sorted and deduplicated (dynamically scheduled so
//     hub vertices cannot stall a static partition) and compacted,
//     producing the distinct edge set in canonical order;
//  4. the full adjacency is assembled directly in sorted order: vertex
//     v's smaller neighbors arrive from the compacted half-edge lists
//     in ascending-u order (contiguous ascending worker chunks +
//     per-worker cursor bases preserve order), and its larger
//     neighbors are its own half-edge list — already ascending and all
//     greater than v — appended after them. No second sort is needed.
func BuildFromEdges(n int, us, vs []int32) *Graph {
	return buildFromEdges(n, us, vs, 0)
}

// buildFromEdges is BuildFromEdges with an explicit worker count;
// forceWorkers <= 0 selects the memory-budgeted automatic count. Tests
// use the explicit form to exercise every parallel schedule under the
// race detector regardless of the host's CPU count.
func buildFromEdges(n int, us, vs []int32, forceWorkers int) *Graph {
	if len(us) != len(vs) {
		panic("graph: BuildFromEdges endpoint slices differ in length")
	}
	m := len(us)
	// bound caps every phase of the construction when the caller forced
	// a worker count; 0 keeps the automatic per-phase widths.
	bound := 0
	if forceWorkers > 0 {
		bound = forceWorkers
	}
	workers := forceWorkers
	if workers <= 0 {
		workers = scatterWorkers(n, m)
	}

	// Phase 1: per-worker canonical half-edge counts over disjoint
	// edge chunks (self loops excluded).
	counts := make([][]int32, workers)
	parallel.ForChunks(m, workers, func(w, lo, hi int) {
		cnt := make([]int32, n)
		for i := lo; i < hi; i++ {
			if us[i] != vs[i] {
				cnt[min(us[i], vs[i])]++
			}
		}
		counts[w] = cnt
	})
	// Workers past the last ceil-divided edge chunk never ran and have
	// no count array.
	active := 0
	for active < workers && counts[active] != nil {
		active++
	}
	counts = counts[:active]

	// Phase 2: half-edge offsets and partitioned scatter of each larger
	// endpoint into its smaller endpoint's bucket. When offsets fit in
	// int32 (graphs under 2^31 half-edges, i.e. essentially all) the
	// count arrays are converted to cursors in place.
	lowOff := parallel.Offsets(countTotals(n, bound, counts))
	lowAdj := make([]int32, lowOff[n])
	if lowOff[n] <= math.MaxInt32 {
		seedCursors(n, bound, counts, lowOff, counts)
		scatterHalf(us, vs, workers, counts, lowAdj)
	} else {
		cursors := newCursorSet[int64](n, active)
		seedCursors(n, bound, counts, lowOff, cursors)
		scatterHalf(us, vs, workers, cursors, lowAdj)
	}
	counts = nil

	// Phase 3: sort and deduplicate each bucket, then compact. The
	// result is the distinct edge set in canonical (u, v) order.
	distinct := make([]int64, n)
	parallel.For(n, bound, 256, func(_, v int) {
		s := lowAdj[lowOff[v]:lowOff[v+1]]
		slices.Sort(s)
		k := 0
		for i := 0; i < len(s); i++ {
			if i == 0 || s[i] != s[i-1] {
				s[k] = s[i]
				k++
			}
		}
		distinct[v] = int64(k)
	})
	edgeOff := parallel.Offsets(distinct)
	edgeAdj := make([]int32, edgeOff[n])
	parallel.For(n, bound, 256, func(_, v int) {
		copy(edgeAdj[edgeOff[v]:edgeOff[v+1]], lowAdj[lowOff[v]:lowOff[v]+distinct[v]])
	})
	lowAdj = nil

	// Phase 4: count each vertex's smaller neighbors (its appearances
	// as a larger endpoint) per worker over contiguous ranges of the
	// compacted half-edge array.
	total := int(edgeOff[n])
	inWorkers := forceWorkers
	if inWorkers <= 0 {
		inWorkers = scatterWorkers(n, total)
	}
	inCounts := make([][]int32, inWorkers)
	parallel.ForChunks(total, inWorkers, func(w, lo, hi int) {
		cnt := make([]int32, n)
		for i := lo; i < hi; i++ {
			cnt[edgeAdj[i]]++
		}
		inCounts[w] = cnt
	})
	inActive := 0
	for inActive < inWorkers && inCounts[inActive] != nil {
		inActive++
	}
	inCounts = inCounts[:inActive]

	// Phase 5: full CSR offsets. Vertex v's bucket holds its smaller
	// neighbors first, then its own half-edge (larger) list.
	inDeg := countTotals(n, bound, inCounts)
	deg := make([]int64, n)
	parallel.ForVerticesN(n, bound, func(v int) {
		deg[v] = inDeg[v] + distinct[v]
	})
	offsets := parallel.Offsets(deg)
	adj := make([]int32, offsets[n])

	// Phase 6a: copy each vertex's larger neighbors after its
	// smaller-neighbor region.
	parallel.For(n, bound, 256, func(_, v int) {
		copy(adj[offsets[v]+inDeg[v]:offsets[v+1]], edgeAdj[edgeOff[v]:edgeOff[v+1]])
	})

	// Phase 6b: scatter each vertex's smaller neighbors, ascending-u by
	// construction (see scatterSmaller).
	if offsets[n] <= math.MaxInt32 {
		seedCursors(n, bound, inCounts, offsets, inCounts)
		scatterSmaller(n, total, inWorkers, edgeOff, edgeAdj, adj, inCounts)
	} else {
		inCursors := newCursorSet[int64](n, inActive)
		seedCursors(n, bound, inCounts, offsets, inCursors)
		scatterSmaller(n, total, inWorkers, edgeOff, edgeAdj, adj, inCursors)
	}
	return &Graph{Offsets: offsets, Adj: adj, Sorted: true}
}

// ShuffleAdjacency returns a copy of g whose adjacency lists are each
// pseudo-randomly permuted (deterministically from seed). This produces
// the "unordered" input representation of the paper's unoptimized
// variant from a canonical sorted graph.
func ShuffleAdjacency(g *Graph, seed uint64) *Graph {
	adj := make([]int32, len(g.Adj))
	copy(adj, g.Adj)
	out := &Graph{Offsets: g.Offsets, Adj: adj, Sorted: false}
	n := g.NumVertices()
	parallel.ForVertices(n, func(v int) {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		s := adj[lo:hi]
		// Per-vertex generator so the shuffle is independent of the
		// parallel schedule.
		state := seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15
		next := func() uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		for i := len(s) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			s[i], s[j] = s[j], s[i]
		}
	})
	return out
}
