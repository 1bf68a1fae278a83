package core

import "chordal/internal/graph"

// stitchComponents connects distinct components of the extracted
// subgraph with single original-graph edges. The paper's remark below
// Theorem 2 combines successively numbered component pairs with one edge
// each; a spanning stitch generalizes this — any acyclic set of
// inter-component edges preserves chordality, because a bridge can never
// lie on a cycle — and connects everything the original graph allows.
func stitchComponents(g *graph.Graph, res *Result) {
	n := res.NumVertices
	uf := NewUnionFind(n)
	for _, e := range res.Edges {
		uf.Union(e.U, e.V)
	}
	added := false
	g.Edges(func(u, v int32) {
		if uf.Find(u) != uf.Find(v) {
			uf.Union(u, v)
			res.addChordalEdge(u, v)
			res.StitchedEdges++
			added = true
		}
	})
	if added {
		SortEdges(n, res.Edges)
	}
}

// UnionFind is a standard weighted quick-union with path halving over
// int32 vertex ids. Both the component stitch here and the sharded
// reconciliation in internal/shard build their spanning stitches on
// it.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a UnionFind over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set, halving the path as it
// walks.
func (uf *UnionFind) Find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b by rank.
func (uf *UnionFind) Union(a, b int32) {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
