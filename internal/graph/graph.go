// Package graph provides the compressed sparse row (CSR) graph substrate
// used by every algorithm in this library.
//
// Graphs are simple (no self loops, no parallel edges), undirected, and
// store each edge in both endpoint adjacency lists, exactly as the paper
// describes: "we use a compressed storage format to store the graphs in
// memory, where the neighbors of each vertex are stored contiguously".
//
// Vertices are identified by int32 ids in [0, NumVertices). The paper's
// algorithm depends on this total order of ids (lowest parents), and on
// the distinction between graphs whose adjacency lists are sorted
// (the "Opt" variant of the paper) and unsorted (the "Unopt" variant).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an undirected graph in CSR form. The neighbors of vertex v are
// Adj[Offsets[v]:Offsets[v+1]]. A Graph is immutable after construction
// and safe for concurrent readers.
type Graph struct {
	// Offsets has length NumVertices+1; Offsets[v+1]-Offsets[v] is the
	// degree of v.
	Offsets []int64
	// Adj holds the concatenated adjacency lists (2 * NumEdges entries).
	Adj []int32
	// Sorted records whether every adjacency list is in ascending order.
	Sorted bool
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency list of v. The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// HasEdge reports whether the edge {u, v} is present. On sorted graphs it
// runs in O(log deg(u)); otherwise it scans.
func (g *Graph) HasEdge(u, v int32) bool {
	nu := g.Neighbors(u)
	if g.Sorted {
		i := sort.Search(len(nu), func(i int) bool { return nu[i] >= v })
		return i < len(nu) && nu[i] == v
	}
	for _, w := range nu {
		if w == v {
			return true
		}
	}
	return false
}

// SizeBytes returns the in-memory size of the CSR arrays (offsets plus
// adjacency) — the byte cost the service's caches charge per graph.
func (g *Graph) SizeBytes() int64 {
	return int64(len(g.Offsets))*8 + int64(len(g.Adj))*4
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// SortAdjacency returns a copy of g whose adjacency lists are sorted
// ascending, the representation the paper's optimized variant requires.
// If g is already sorted it is returned unchanged. It is Relabel's
// permuted transposition under the identity permutation: one O(V+E)
// pass on one goroutine, with no per-row sort. It relies only on every
// edge being stored in both directions (which every constructor in
// this package guarantees, ReadBinary by validation), not on any row
// order.
func (g *Graph) SortAdjacency() *Graph {
	if g.Sorted {
		return g
	}
	id := make([]int32, g.NumVertices())
	for v := range id {
		id[v] = int32(v)
	}
	return g.permutedTranspose(id, id)
}

// Validate checks structural invariants: monotone offsets, neighbor ids
// in range, no self loops, no duplicate neighbors, and symmetric edges.
// It is O(E log E)-ish and intended for tests and tools, not hot paths.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) == 0 || g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	if g.Offsets[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: final offset %d != len(adj) %d", g.Offsets[n], len(g.Adj))
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		seen := make(map[int32]bool, g.Degree(int32(v)))
		for _, w := range g.Neighbors(int32(v)) {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if seen[w] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", v, w)
			}
			seen[w] = true
		}
		if g.Sorted {
			nb := g.Neighbors(int32(v))
			for i := 1; i < len(nb); i++ {
				if nb[i-1] >= nb[i] {
					return fmt.Errorf("graph: vertex %d marked sorted but adjacency is not", v)
				}
			}
		}
	}
	// Symmetry: every {u,v} must appear from both sides.
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if !g.HasEdge(w, int32(v)) {
				return fmt.Errorf("graph: edge {%d,%d} missing reverse direction", v, w)
			}
		}
	}
	return nil
}

// CheckSimpleSymmetric verifies in O(V+E) that g, whose offsets and id
// ranges are already known good, has no self loops or repeated
// neighbours, keeps every row ascending when marked sorted, and stores
// every edge in both directions. Both binary CSR readers run it on
// every decode: ReadBinary on the whole graph, internal/extio on each
// decoded shard and whole-graph decode. Validate stays the independent
// test oracle.
func (g *Graph) CheckSimpleSymmetric() error {
	if g.Sorted {
		return g.checkSortedSymmetric()
	}
	// Equal in- and out-degrees let SortAdjacency's transposition fill
	// every row exactly. Its rows are then the input's columns, which
	// pass the sorted walk only if the input is simple and symmetric.
	n := g.NumVertices()
	in := make([]int64, n)
	for _, w := range g.Adj {
		in[w]++
	}
	for v := 0; v < n; v++ {
		if d := g.Offsets[v+1] - g.Offsets[v]; in[v] != d {
			return fmt.Errorf("graph: vertex %d is listed %d times but has degree %d: an edge lacks its reverse", v, in[v], d)
		}
	}
	return g.SortAdjacency().checkSortedSymmetric()
}

// checkSortedSymmetric is CheckSimpleSymmetric for a graph marked
// sorted. It keeps one cursor per vertex and walks v upward: each w > v
// in v's row must list v at w's cursor, which then advances. At the end
// every cursor must rest at its row's first neighbour larger than the
// row's own vertex, so every smaller neighbour was matched.
func (g *Graph) checkSortedSymmetric() error {
	n := g.NumVertices()
	cur := make([]int64, n)
	copy(cur, g.Offsets)
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for _, w := range g.Neighbors(int32(v)) {
			if w <= prev {
				return fmt.Errorf("graph: vertex %d: neighbour %d repeated or out of order", v, w)
			}
			prev = w
			if int(w) == v {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if int(w) > v {
				c := cur[w]
				if c == g.Offsets[w+1] || g.Adj[c] != int32(v) {
					return fmt.Errorf("graph: edge {%d,%d} missing reverse direction", v, w)
				}
				cur[w] = c + 1
			}
		}
	}
	for w, c := range cur {
		if c < g.Offsets[w+1] && int(g.Adj[c]) < w {
			return fmt.Errorf("graph: edge {%d,%d} missing reverse direction", w, g.Adj[c])
		}
	}
	return nil
}

// Edges calls fn once per undirected edge with u < v. Iteration order is
// by u then adjacency position.
func (g *Graph) Edges(fn func(u, v int32)) {
	g.EdgesWhile(func(u, v int32) bool { fn(u, v); return true })
}

// EdgesWhile is Edges with an early exit: it stops at the first edge
// for which fn returns false.
func (g *Graph) EdgesWhile(fn func(u, v int32) bool) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if int32(u) < v && !fn(int32(u), v) {
				return
			}
		}
	}
}

// EdgeList returns all undirected edges with U[i] < V[i].
func (g *Graph) EdgeList() (us, vs []int32) {
	m := g.NumEdges()
	us = make([]int32, 0, m)
	vs = make([]int32, 0, m)
	g.Edges(func(u, v int32) {
		us = append(us, u)
		vs = append(vs, v)
	})
	return us, vs
}

// Range returns the subgraph induced by the contiguous vertex range
// [lo, hi) of g, with local ids 0..hi-lo-1 (global id = lo + local id);
// see RangeCSR.
func (g *Graph) Range(lo, hi int32) *Graph {
	return RangeCSR(g.Offsets[lo:hi+1], g.Adj[g.Offsets[lo]:g.Offsets[hi]], lo, hi)
}

// RangeCSR cuts the subgraph induced by the contiguous vertex range
// [lo, hi) from that range's rows alone: offs holds the hi-lo+1 row
// offsets of [lo, hi) and adj the adjacency from offs[0] on, both in
// the whole graph's ids. Each row keeps its neighbours inside the
// range, shifted to local ids, in row order; a row that is not
// ascending is then sorted, so the result is always marked sorted. The
// sharded engines cut every shard here: Graph.Range on a resident
// graph, internal/extio on the rows it decodes from disk.
func RangeCSR(offs []int64, adj []int32, lo, hi int32) *Graph {
	span := int(hi - lo)
	base := offs[0]
	sub := &Graph{Offsets: make([]int64, span+1), Sorted: true}
	// First pass sizes the kept rows, second pass fills them.
	for v := 0; v < span; v++ {
		kept := int64(0)
		for _, w := range adj[offs[v]-base : offs[v+1]-base] {
			if w >= lo && w < hi {
				kept++
			}
		}
		sub.Offsets[v+1] = sub.Offsets[v] + kept
	}
	sub.Adj = make([]int32, sub.Offsets[span])
	for v := 0; v < span; v++ {
		out := sub.Adj[sub.Offsets[v]:sub.Offsets[v]:sub.Offsets[v+1]]
		for _, w := range adj[offs[v]-base : offs[v+1]-base] {
			if w >= lo && w < hi {
				out = append(out, w-lo)
			}
		}
		if !slices.IsSorted(out) {
			slices.Sort(out)
		}
	}
	return sub
}

// Relabel returns a copy of g in which old vertex v becomes perm[v].
// perm must be a permutation of [0, NumVertices); Relabel panics
// otherwise. It runs in O(V+E) on one goroutine.
//
// A sorted g is relabeled by Gustavson's permuted transposition ("Two
// fast algorithms for sparse matrices: multiplication and permuted
// transposition", ACM TOMS 4(3), 1978): visiting new ids y in ascending
// order and appending y to the row of every neighbour of perm⁻¹[y]
// fills every row in ascending order, so the result is sorted without
// a per-row sort. An unsorted g keeps each row's order, mapped through
// perm, and the result stays unsorted: VariantAuto picks the paper's
// Unopt variant from that flag.
func (g *Graph) Relabel(perm []int32) *Graph {
	n := g.NumVertices()
	if len(perm) != n {
		panic("graph: Relabel permutation has wrong length")
	}
	inv := make([]int32, n)
	for v := range inv {
		inv[v] = -1
	}
	for v, p := range perm {
		if p < 0 || int(p) >= n || inv[p] >= 0 {
			panic("graph: Relabel perm is not a permutation")
		}
		inv[p] = int32(v)
	}
	if g.Sorted {
		return g.permutedTranspose(perm, inv)
	}
	offsets := make([]int64, n+1)
	adj := make([]int32, 0, len(g.Adj))
	for y, x := range inv {
		for _, w := range g.Neighbors(x) {
			adj = append(adj, perm[w])
		}
		offsets[y+1] = int64(len(adj))
	}
	return &Graph{Offsets: offsets, Adj: adj}
}

// permutedTranspose returns P·A·Pᵀ for the permutation perm with inverse
// inv, every row ascending. Row perm[w] receives y once for each
// neighbour w of inv[y], so it holds exactly deg(w) entries only
// because g stores every edge in both directions.
func (g *Graph) permutedTranspose(perm, inv []int32) *Graph {
	n := len(perm)
	// offsets[r+1] starts as row r's first slot and serves as its
	// append cursor; after the scatter it is row r's end, which is
	// offsets[r+2]'s start, so no separate cursor array is needed.
	offsets := make([]int64, n+1)
	for v, r := range perm {
		if int(r)+2 <= n {
			offsets[r+2] = int64(g.Degree(int32(v)))
		}
	}
	for r := 2; r <= n; r++ {
		offsets[r] += offsets[r-1]
	}
	adj := make([]int32, len(g.Adj))
	for y, x := range inv {
		for _, w := range g.Neighbors(x) {
			c := &offsets[perm[w]+1]
			adj[*c] = int32(y)
			*c++
		}
	}
	return &Graph{Offsets: offsets, Adj: adj, Sorted: true}
}
