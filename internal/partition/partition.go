// Package partition implements the earlier distributed-memory approach
// to chordal subgraph extraction that the paper discusses as related
// work (Dempsey, Duraisamy, Ali, Bhowmick — refs [4], [5], [8]): the
// graph is partitioned, the serial Dearing algorithm runs independently
// on each partition's interior, and border edges (edges whose endpoints
// lie in different partitions) are then admitted when they close a
// triangle with already-chordal edges.
//
// As the paper points out, this scheme is only *nearly* chordal — border
// edges can assemble cycles longer than three — and eliminating those
// cycles can degenerate to sequential work. The package therefore
// reports exactly how non-chordal the result is (via a final
// verification) so the benchmark harness can contrast it against
// Algorithm 1, which never admits a long cycle in the first place.
package partition

import (
	"chordal/internal/dearing"
	"chordal/internal/graph"
	"chordal/internal/parallel"
	"chordal/internal/verify"
)

// Result is the output of Extract.
type Result struct {
	// Edges is the extracted (nearly chordal) edge set, U < V, in
	// graph.SortEdges order.
	Edges []graph.Edge
	// InteriorEdges counts edges contributed by per-partition serial
	// extraction.
	InteriorEdges int
	// BorderAdmitted counts border edges admitted by the triangle rule.
	BorderAdmitted int
	// BorderTotal counts all border edges examined.
	BorderTotal int
	// Chordal records whether the combined subgraph happened to be
	// chordal (it is not guaranteed to be).
	Chordal bool
	// Parts is the number of partitions used.
	Parts int
}

// ClampParts bounds a requested part count to [1, n], the valid range
// for a contiguous partition of n vertices.
func ClampParts(n, parts int) int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	return parts
}

// Bounds returns the vertex id range [lo, hi) of part p when n vertices
// are split into parts contiguous ranges: lo = ⌊p·n/parts⌋ and
// hi = ⌊(p+1)·n/parts⌋. The sharded engines and the baseline here cut
// their slices with it.
func Bounds(n, parts, p int) (lo, hi int32) {
	return int32(int64(p) * int64(n) / int64(parts)), int32(int64(p+1) * int64(n) / int64(parts))
}

// PartOf returns the inverse of Bounds: vertex v belongs to part
// ⌊((v+1)·parts − 1)/n⌋, the one p with v in Bounds(n, parts, p). It
// classifies border edges wherever they are decided (this baseline's
// border pass and cleanup, the sharded engines' reconciliation,
// CutEdges), so an edge is interior exactly when one slice holds both
// its endpoints, whether or not parts divides n.
func PartOf(n, parts int) func(v int32) int {
	return func(v int32) int { return int(((int64(v)+1)*int64(parts) - 1) / int64(n)) }
}

// CutEdges counts the edges of g crossing parts under the PartOf
// assignment — the edges crossing the Bounds slices, which every kernel
// skips and the reconciliation pass must examine. It is the per-run
// measure of how much a contiguous-range partition costs (and what a
// smarter edge-cut-minimizing partitioner would shrink); sharded runs
// surface it as ShardSummary.EdgeCut. parts <= 1 has no borders and
// returns 0.
func CutEdges(g *graph.Graph, parts int) int64 {
	n := g.NumVertices()
	if n == 0 || parts <= 1 {
		return 0
	}
	parts = ClampParts(n, parts)
	if parts == 1 {
		return 0
	}
	partOf := PartOf(n, parts)
	var cut int64
	g.Edges(func(u, v int32) {
		if partOf(u) != partOf(v) {
			cut++
		}
	})
	return cut
}

// Extract partitions g into parts contiguous vertex ranges, extracts a
// maximal chordal subgraph inside each range concurrently with the
// serial baseline, then admits border edges that form a triangle with
// an interior chordal edge.
func Extract(g *graph.Graph, parts int) *Result {
	n := g.NumVertices()
	parts = ClampParts(n, parts)
	res := &Result{Parts: parts}

	partOf := PartOf(n, parts)

	// Interior extraction, one task per part on the shared runtime. A
	// part's local id i is global id lo+i, so shifting keeps U < V.
	interiors := make([][]graph.Edge, parts)
	parallel.For(parts, 0, 1, func(_, p int) {
		lo, hi := Bounds(n, parts, p)
		edges := dearing.Extract(g.Range(lo, hi), 0).Edges
		for i := range edges {
			edges[i].U += lo
			edges[i].V += lo
		}
		interiors[p] = edges
	})

	edgeKey := func(u, v int32) int64 { return int64(u)<<32 | int64(v) }
	chordalSet := make(map[int64]bool)
	for _, edges := range interiors {
		for _, e := range edges {
			chordalSet[edgeKey(e.U, e.V)] = true
			res.Edges = append(res.Edges, e)
		}
	}
	res.InteriorEdges = len(res.Edges)

	isChordalEdge := func(u, v int32) bool {
		if u > v {
			u, v = v, u
		}
		return chordalSet[edgeKey(u, v)]
	}

	// Border pass: admit a border edge {u,v} when some common neighbor
	// x has both {u,x} and {v,x} already chordal (the triangle rule of
	// ref [5]). Process in a deterministic order.
	g.Edges(func(u, v int32) {
		if partOf(u) == partOf(v) {
			return
		}
		res.BorderTotal++
		if closesTriangle(g, u, v, isChordalEdge) {
			chordalSet[edgeKey(u, v)] = true
			res.Edges = append(res.Edges, graph.Edge{U: u, V: v})
			res.BorderAdmitted++
		}
	})

	graph.SortEdges(n, res.Edges)
	res.Chordal = verify.IsChordal(graph.FromSortedEdges(n, res.Edges))
	return res
}

// closesTriangle reports whether u and v share a neighbor x with both
// {u,x} and {v,x} chordal. Intersection is a merge scan when adjacency
// is sorted, a hash probe otherwise.
func closesTriangle(g *graph.Graph, u, v int32, isChordal func(int32, int32) bool) bool {
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	if g.Sorted {
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				x := nu[i]
				if isChordal(u, x) && isChordal(v, x) {
					return true
				}
				i++
				j++
			}
		}
		return false
	}
	set := make(map[int32]bool, len(nu))
	for _, x := range nu {
		set[x] = true
	}
	for _, x := range nv {
		if set[x] && isChordal(u, x) && isChordal(v, x) {
			return true
		}
	}
	return false
}
