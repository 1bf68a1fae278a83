// Package verify provides chordality and maximality verification used by
// the test suite, the CLI tools, and the optional maximality-repair pass.
//
// Chordality is decided in O(V+E) with the classic two-step procedure
// of Tarjan & Yannakakis ("Simple linear-time algorithms to test
// chordality of graphs, test acyclicity of hypergraphs, and selectively
// reduce acyclic hypergraphs", SIAM J. Comput. 1984): a Maximum
// Cardinality Search produces an ordering that is a perfect elimination
// ordering (PEO) if and only if the graph is chordal, and their
// follower test validates the ordering. The follower of a vertex v is
// its neighbor eliminated first after v; an ordering is a PEO exactly
// when every later neighbor of v other than its follower is adjacent
// to the follower. The test sweeps the ordering once and keeps two flat
// arrays, each vertex's follower and the last step that marked it.
//
// PEO returns the validated ordering itself, so a caller that goes on
// to use it (the maximality audit, the quality metrics, the
// chordal-graph algorithms) holds one certificate of chordality instead
// of computing a second.
//
// The maximality audit decides each absent edge on a clique forest
// built from that MCS order (Blair & Peyton's clique tree, tested by
// Ibarra's insertion criterion; see CliqueForest), in near-linear total
// time.
package verify

import (
	"context"

	"chordal/internal/graph"
)

// MCSOrder runs Maximum Cardinality Search and returns the visit order
// reversed, i.e. a candidate perfect elimination ordering (PEO): if the
// graph is chordal, every vertex is simplicial in the subgraph induced
// by itself and the vertices after it in the returned order.
func MCSOrder(g *graph.Graph) []int32 {
	order, _ := mcsOrder(g.NumVertices(), func(v int32) []int32 { return g.Neighbors(v) })
	return order
}

// MCSOrderAdj is MCSOrder over a slice-of-slices adjacency.
func MCSOrderAdj(adj [][]int32) []int32 {
	order, _ := mcsOrder(len(adj), func(v int32) []int32 { return adj[v] })
	return order
}

// mcsOrder is the shared MCS implementation: repeatedly pick an
// unvisited vertex with the most visited neighbors, using weight
// buckets for O(V+E) total time. It also returns width, the largest
// label (count of visited neighbors) a vertex had when it was picked.
// A vertex's visited neighbors at its pick are its later neighbors in
// the returned order, so width is the largest later neighborhood of
// that order, for any graph: the number chordalalg.TreewidthFromPEO
// computes from it, and the treewidth when the order is a PEO.
func mcsOrder(n int, nbrs func(int32) []int32) (order []int32, width int) {
	weight := make([]int32, n)
	visited := make([]bool, n)

	// Bucket structure: doubly linked lists per weight.
	next := make([]int32, n)
	prev := make([]int32, n)
	head := make([]int32, n+1) // head[w] = first vertex with weight w
	for i := range head {
		head[i] = -1
	}
	pushBucket := func(v, w int32) {
		next[v] = head[w]
		prev[v] = -1
		if head[w] != -1 {
			prev[head[w]] = v
		}
		head[w] = v
	}
	removeBucket := func(v, w int32) {
		if prev[v] != -1 {
			next[prev[v]] = next[v]
		} else {
			head[w] = next[v]
		}
		if next[v] != -1 {
			prev[next[v]] = prev[v]
		}
	}
	for v := int32(0); v < int32(n); v++ {
		pushBucket(v, 0)
	}

	order = make([]int32, n)
	maxW := int32(0)
	for i := 0; i < n; i++ {
		for maxW > 0 && head[maxW] == -1 {
			maxW--
		}
		width = max(width, int(maxW))
		v := head[maxW]
		removeBucket(v, maxW)
		visited[v] = true
		// MCS visits in this sequence; the PEO is the reverse, so fill
		// from the back.
		order[n-1-i] = v
		for _, w := range nbrs(v) {
			if !visited[w] {
				removeBucket(w, weight[w])
				weight[w]++
				pushBucket(w, weight[w])
				if weight[w] > maxW {
					maxW = weight[w]
				}
			}
		}
	}
	return order, width
}

// PEO returns the Maximum Cardinality Search order of g (MCSOrder), the
// largest label the search assigned at pick time, and whether the
// order is a perfect elimination ordering of g, which holds exactly
// when g is chordal. The order is returned either way; only a validated
// one is a certificate, and then width is the treewidth of g.
func PEO(g *graph.Graph) (order []int32, width int, ok bool) {
	order, width = mcsOrder(g.NumVertices(), func(v int32) []int32 { return g.Neighbors(v) })
	return order, width, IsPEO(g, order)
}

// IsPEO reports whether order is a perfect elimination ordering of the
// graph: order[0] is eliminated first, and each vertex's neighbors
// eliminated after it must form a clique. order must be a permutation
// of the vertices; a wrong length, a repeated id or an id out of range
// reports false. Runs the follower test of Tarjan & Yannakakis in
// O(V+E).
func IsPEO(g *graph.Graph, order []int32) bool {
	return isPEO(g.NumVertices(), func(v int32) []int32 { return g.Neighbors(v) }, order)
}

// IsPEOAdj is IsPEO over a slice-of-slices adjacency.
func IsPEOAdj(adj [][]int32, order []int32) bool {
	return isPEO(len(adj), func(v int32) []int32 { return adj[v] }, order)
}

// isPEO is the follower test. Step i takes w = order[i] and marks its
// earlier neighbors v with i. A v that has no follower yet gets w: w is
// its first neighbor eliminated after it. Then each such v's follower
// must be w itself or one of the vertices just marked, i.e. adjacent to
// w. mark[v] is -1 until v's own step, so it also tells the earlier
// neighbors from the later ones and catches a repeated id.
func isPEO(n int, nbrs func(int32) []int32, order []int32) bool {
	if len(order) != n {
		return false
	}
	follower := make([]int32, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for i, w := range order {
		if w < 0 || int(w) >= n || mark[w] != -1 {
			return false
		}
		step := int32(i)
		follower[w], mark[w] = w, step
		adj := nbrs(w)
		for _, v := range adj {
			if mark[v] == -1 {
				continue // eliminated after w
			}
			mark[v] = step
			if follower[v] == v {
				follower[v] = w
			}
		}
		for _, v := range adj {
			if mark[v] == step && mark[follower[v]] != step {
				return false
			}
		}
	}
	return true
}

// IsChordal reports whether g is a chordal graph.
func IsChordal(g *graph.Graph) bool {
	_, _, ok := PEO(g)
	return ok
}

// IsChordalAdj reports whether the slice-of-slices adjacency is chordal.
func IsChordalAdj(adj [][]int32) bool {
	return IsPEOAdj(adj, MCSOrderAdj(adj))
}

// AdjFromGraph copies g into a mutable slice-of-slices adjacency, the
// representation used for incremental add-an-edge experiments.
func AdjFromGraph(g *graph.Graph) [][]int32 {
	n := g.NumVertices()
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(int32(v))
		adj[v] = append(make([]int32, 0, len(nb)+1), nb...)
	}
	return adj
}

// MaximalityViolation is a rejected edge whose addition keeps the
// subgraph chordal, i.e. a witness that the subgraph is not maximal.
type MaximalityViolation struct {
	U, V int32
}

// AuditMaximality examines every edge of g absent from sub (a chordal
// subgraph over the same vertex set) and returns those whose addition
// would keep sub chordal, in g's edge order, stopping after limit
// violations (limit <= 0 means no limit). Each candidate is tested
// independently against sub as-is, on a clique forest of sub built
// from its MCS order at the first absent edge: the cost is one O(V+E)
// build plus O(log n · log ω + ω) per absent edge, where ω is the
// largest clique of sub. A caller that holds the validated order calls
// AuditMaximalityFromPEO instead.
func AuditMaximality(g, sub *graph.Graph, limit int) []MaximalityViolation {
	// A background context is never canceled, so audit returns no error.
	out, _ := audit(context.Background(), g, sub, func() []int32 { return MCSOrder(sub) }, limit)
	return out
}

// AuditMaximalityFromPEO is AuditMaximality for a caller that holds
// peo, the MCS order of sub that PEO returned and validated, as
// Runner.Run's verify stage and a stream's Close do. It must be that
// MCS order: the clique forest is built by the MCS clique-start rule,
// which an arbitrary perfect elimination ordering breaks. ctx is
// observed every 256 candidates; a canceled audit returns ctx.Err().
func AuditMaximalityFromPEO(ctx context.Context, g, sub *graph.Graph, peo []int32, limit int) ([]MaximalityViolation, error) {
	return audit(ctx, g, sub, func() []int32 { return peo }, limit)
}

// audit is the shared audit loop. order is called, and the clique
// forest built, only at the first absent edge, so an output that keeps
// every edge of g pays for neither. When both graphs keep their
// adjacency sorted, an edge's presence in sub comes from a merge of the
// two lists instead of a search per edge.
func audit(ctx context.Context, g, sub *graph.Graph, order func() []int32, limit int) ([]MaximalityViolation, error) {
	var (
		forest *CliqueForest
		out    []MaximalityViolation
	)
	merge := g.Sorted && sub.Sorted
	tested := 0
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		kept := sub.Neighbors(u)
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if merge {
				for len(kept) > 0 && kept[0] < v {
					kept = kept[1:]
				}
				if len(kept) > 0 && kept[0] == v {
					continue
				}
			} else if sub.HasEdge(u, v) {
				continue
			}
			if tested%256 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			tested++
			if forest == nil {
				forest = NewCliqueForest(sub, order())
			}
			if forest.canAdd(u, v) {
				out = append(out, MaximalityViolation{U: u, V: v})
				if limit > 0 && len(out) >= limit {
					return out, nil
				}
			}
		}
	}
	return out, nil
}

// IsMaximalChordal reports whether sub is chordal and no edge of g can
// be added to it without breaking chordality. A sub on a different
// vertex count than g is no subgraph of g's vertex set, and reports
// false.
func IsMaximalChordal(g, sub *graph.Graph) bool {
	if sub.NumVertices() != g.NumVertices() {
		return false
	}
	peo, _, ok := PEO(sub)
	if !ok {
		return false
	}
	out, _ := AuditMaximalityFromPEO(context.Background(), g, sub, peo, 1)
	return len(out) == 0
}
