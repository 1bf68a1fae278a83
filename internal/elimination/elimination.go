// Package elimination implements the sparse-matrix application that
// motivates chordal subgraph extraction as an ordering tool: symbolic
// Gaussian elimination. Eliminating a vertex connects its remaining
// neighbors pairwise; edges created this way are "fill". An ordering
// is fill-free exactly when it is a perfect elimination ordering of a
// chordal graph, so a PEO of a large extracted chordal subgraph is a
// natural fill-reducing ordering for the original graph: all fill is
// confined to the non-chordal remainder.
//
// The package provides exact fill computation for any ordering, the
// classic greedy minimum-degree heuristic as a baseline, and the
// chordal-subgraph-guided ordering built from this library's extractor.
package elimination

import (
	"context"
	"fmt"
	"slices"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/verify"
)

// Fill returns the number of fill edges the elimination game creates on
// g in the given vertex order, without playing the game. order must be
// a permutation of the vertices: order[0] is eliminated first.
//
// The count is exact. Renumber g so that vertex order[k] becomes k;
// the filled graph is then the structure of the Cholesky factor L of
// that symmetric pattern, so fill = |L| − n − |E|. |L| comes from the
// column counts of L, computed without forming L: the elimination tree
// by Liu's algorithm ("The role of elimination trees in sparse
// factorization", SIAM J. Matrix Anal. Appl. 1990), a postorder of it,
// then the skeleton/least-common-ancestor column counts of Gilbert, Ng
// and Peyton ("An efficient algorithm to compute row and column counts
// for sparse Cholesky factorization", SIAM J. Matrix Anal. Appl. 1994).
// g is read once, by the elimination-tree pass, which also records each
// edge's later endpoint as an elimination step; the column counts then
// read those contiguous position lists. Both passes climb a disjoint-set
// forest (see find) united by size, with one root label per set, and
// that is what bounds the time by O(E·α(E, V)): path compression alone
// guarantees only O(E log V). Space is O(V + E), one int32 per edge,
// whatever the fill.
func Fill(g *graph.Graph, order []int32) (int64, error) {
	pos, err := positions(g.NumVertices(), order)
	if err != nil {
		return 0, err
	}
	parent, start, later := etree(g, order, pos)
	var nnz int64
	for _, c := range colCounts(start, later, parent, postorder(parent)) {
		nnz += c
	}
	return nnz - int64(len(order)) - g.NumEdges(), nil
}

// positions validates that order is a permutation of 0..n-1 and returns
// its inverse: pos[v] is the elimination step of vertex v.
func positions(n int, order []int32) ([]int32, error) {
	if len(order) != n {
		return nil, fmt.Errorf("elimination: order length %d != %d vertices", len(order), n)
	}
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if v < 0 || int(v) >= n || pos[v] != -1 {
			return nil, fmt.Errorf("elimination: order is not a permutation")
		}
		pos[v] = int32(i)
	}
	return pos, nil
}

// etree returns the elimination tree of g under order, on elimination
// steps: parent[k] is the step whose vertex is the parent of order[k],
// -1 for a root. It is Liu's algorithm on a disjoint-set forest: the
// steps before k form subtrees of the tree, one set per subtree, and
// each set's representative r keeps the subtree's root in root[r]. Step
// k finds the set of every earlier neighbor; a set that is not yet k's
// gets k as its root's parent and joins k's set, whose root is k. The
// sets are united by size (set[r] = −size at a representative) and
// found with path halving. The same sweep lists every later neighbor by
// its step: the steps after k adjacent to order[k] are
// later[start[k]:start[k+1]], so each edge appears once, under its
// earlier endpoint.
func etree(g *graph.Graph, order, pos []int32) (parent []int32, start []int, later []int32) {
	n := len(order)
	parent = make([]int32, n)
	set := make([]int32, n)
	root := make([]int32, n)
	start = make([]int, n+1)
	later = make([]int32, 0, g.NumEdges())
	for k, v := range order {
		step := int32(k)
		parent[k], set[k], root[k] = -1, -1, step
		rk := step // representative of k's set
		for _, w := range g.Neighbors(v) {
			i := pos[w]
			if i > step {
				later = append(later, i)
				continue
			}
			r := find(set, i)
			if r == rk {
				continue // already in k's subtree
			}
			parent[root[r]] = step
			rk = union(set, rk, r)
			root[rk] = step
		}
		start[k+1] = len(later)
	}
	return parent, start, later
}

// find returns the representative of i's set in the disjoint-set forest
// set, where set[x] is x's parent and a negative entry marks a
// representative, of −set[x] members. It halves the path it climbs.
func find(set []int32, i int32) int32 {
	for set[i] >= 0 {
		if up := set[set[i]]; up >= 0 {
			set[i] = up
		}
		i = set[i]
	}
	return i
}

// union joins the sets of representatives a and b, the smaller under
// the larger, and returns the representative of the union.
func union(set []int32, a, b int32) int32 {
	if set[a] > set[b] {
		a, b = b, a
	}
	set[a] += set[b]
	set[b] = a
	return a
}

// postorder returns the steps of the forest parent in depth-first
// postorder, children in ascending order, with an explicit stack so a
// path-shaped tree cannot exhaust the goroutine stack.
func postorder(parent []int32) []int32 {
	n := len(parent)
	head := make([]int32, n)
	next := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p != -1 {
			next[j] = head[p]
			head[p] = int32(j)
		}
	}
	post := make([]int32, 0, n)
	var stack []int32
	for root := range parent {
		if parent[root] != -1 {
			continue
		}
		stack = append(stack, int32(root))
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			if c := head[p]; c != -1 {
				head[p] = next[c]
				stack = append(stack, c)
			} else {
				stack = stack[:len(stack)-1]
				post = append(post, p)
			}
		}
	}
	return post
}

// colCounts returns the number of nonzeros in each column of the
// Cholesky factor under the elimination tree parent, diagonal included;
// start and later are etree's position lists. Column j's row set is the
// union of the later neighbors of the steps in j's subtree, so the
// algorithm adds +1 at j per skeleton entry (an edge {i, j}, i > j,
// whose j is a leaf of the i-th row subtree) and −1 at the least common
// ancestor of consecutive leaves of each row subtree, then sums the
// differences up the tree. The least common ancestors come from a
// disjoint-set forest over the postorder: once j is done its set joins
// its parent's, so a leaf's set is labelled with its highest ancestor
// not yet done, the least common ancestor with the current step. Values
// stay int64: a column count is at most n, but partial sums over many
// children are not.
func colCounts(start []int, later, parent, post []int32) []int64 {
	n := len(parent)
	delta := make([]int64, n)
	first := make([]int32, n)    // first[j]: postorder index of j's first descendant
	maxFirst := make([]int32, n) // maxFirst[i]: largest first[j] seen for row i
	prevLeaf := make([]int32, n) // prevLeaf[i]: last leaf found in row subtree i
	set := make([]int32, n)      // disjoint-set forest for the LCA queries (see find)
	root := make([]int32, n)     // root[r]: the subtree root of representative r's set
	for i := range first {
		first[i], maxFirst[i], prevLeaf[i], set[i], root[i] = -1, -1, -1, -1, int32(i)
	}
	for k, j := range post {
		if first[j] == -1 {
			delta[j] = 1 // j is a leaf of the elimination tree
		}
		for ; j != -1 && first[j] == -1; j = parent[j] {
			first[j] = int32(k)
		}
	}
	for _, j := range post {
		if p := parent[j]; p != -1 {
			delta[p]--
		}
		fj := first[j]
		for _, i := range later[start[j]:start[j+1]] {
			if fj <= maxFirst[i] {
				continue // not a skeleton entry
			}
			maxFirst[i] = fj
			prev := prevLeaf[i]
			prevLeaf[i] = j
			delta[j]++
			if prev == -1 {
				continue // first leaf of row subtree i
			}
			q := root[find(set, prev)]
			delta[q]-- // rows counted under both prev and j overlap from q up
		}
		if p := parent[j]; p != -1 {
			root[union(set, find(set, j), find(set, p))] = p
		}
	}
	for j, p := range parent {
		if p != -1 {
			delta[p] += delta[j]
		}
	}
	return delta
}

// NaturalOrder returns the identity ordering 0, 1, ..., n-1.
func NaturalOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// MinDegreeOrder returns the classic greedy minimum-degree ordering:
// repeatedly eliminate a vertex of smallest degree in the current
// (fill-updated) elimination graph. This is the standard baseline
// fill-reducing heuristic (the ancestor of AMD/METIS orderings). The
// filled graph can grow toward complete, so one late elimination can
// cost milliseconds and the whole order seconds: ctx is checked before
// every elimination, and a canceled ctx returns ctx.Err().
func MinDegreeOrder(ctx context.Context, g *graph.Graph) ([]int32, error) {
	n := g.NumVertices()
	adj := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[int32]bool, g.Degree(int32(v)))
		for _, w := range g.Neighbors(int32(v)) {
			adj[v][w] = true
		}
	}
	eliminated := make([]bool, n)
	order := make([]int32, 0, n)
	// Simple bucket queue on degree with lazy revalidation.
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = len(adj[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	cur := 0
	push := func(v int32) {
		d := deg[v]
		for d >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[d] = append(buckets[d], v)
		if d < cur {
			cur = d
		}
	}
	for len(order) < n {
		for cur < len(buckets) && len(buckets[cur]) == 0 {
			cur++
		}
		if cur >= len(buckets) {
			break
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if eliminated[v] || deg[v] != cur {
			continue // stale entry
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eliminated[v] = true
		order = append(order, v)
		// Connect v's remaining neighbors pairwise and update degrees.
		var nbrs []int32
		for w := range adj[v] {
			if !eliminated[w] {
				nbrs = append(nbrs, w)
			}
		}
		// Map iteration order is randomized; sorting keeps the bucket
		// push order — and with it equal-degree tie-breaking — identical
		// across runs, so the ordering (and everything derived from it,
		// like the elimination engine's subgraph) is deterministic.
		slices.Sort(nbrs)
		for i := 0; i < len(nbrs); i++ {
			a := nbrs[i]
			delete(adj[a], v)
			deg[a]--
			for j := i + 1; j < len(nbrs); j++ {
				bb := nbrs[j]
				if !adj[a][bb] {
					adj[a][bb] = true
					adj[bb][a] = true
					deg[a]++
					deg[bb]++
				}
			}
		}
		for _, a := range nbrs {
			push(a)
		}
	}
	return order, nil
}

// ChordalSubgraph returns the chordal subgraph of g induced by the
// elimination order: the largest greedy edge set for which order is a
// perfect elimination ordering. Vertices are processed from the end of
// the order backwards; each vertex v keeps the edge to a later
// neighbor w (scanned in ascending order position) exactly when w is
// adjacent, in the subgraph built so far, to every later neighbor v
// already kept. Edges among vertices later than v are final when v is
// processed, so v's kept later neighborhood is a clique of the result
// and the order is a PEO of it — the result is chordal by
// construction and a subgraph of g, though not necessarily maximal.
// The construction is deterministic in (g, order). Complexity is
// O(V + E·ω) where ω bounds the kept clique sizes.
func ChordalSubgraph(g *graph.Graph, order []int32) (*graph.Graph, error) {
	n := g.NumVertices()
	pos, err := positions(n, order)
	if err != nil {
		return nil, err
	}
	kept := make([]map[int32]bool, n)
	var us, vs []int32
	var later, clique []int32
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		later = later[:0]
		for _, w := range g.Neighbors(v) {
			if pos[w] > int32(i) {
				later = append(later, w)
			}
		}
		// Ascending order position: earlier-eliminated later neighbors
		// are offered membership in v's clique first, which mirrors the
		// elimination game's fill pattern and keeps the scan
		// deterministic (CSR neighbor lists are sorted by id, not
		// position).
		slices.SortFunc(later, func(a, b int32) int { return int(pos[a] - pos[b]) })
		clique = clique[:0]
		for _, w := range later {
			ok := true
			for _, k := range clique {
				if !kept[w][k] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			clique = append(clique, w)
			us = append(us, v)
			vs = append(vs, w)
			if kept[v] == nil {
				kept[v] = make(map[int32]bool, len(later))
			}
			if kept[w] == nil {
				kept[w] = make(map[int32]bool, 4)
			}
			kept[v][w] = true
			kept[w][v] = true
		}
	}
	return graph.SubgraphFromEdges(n, us, vs), nil
}

// ChordalGuidedOrder extracts a maximal chordal subgraph from g and
// returns an elimination ordering of the whole graph that is a perfect
// elimination ordering of the subgraph. All fill under this ordering
// comes from edges outside the chordal subgraph, so a larger extracted
// subgraph directly bounds the fill.
func ChordalGuidedOrder(g *graph.Graph, opts core.Options) ([]int32, error) {
	res, err := core.Extract(g, opts)
	if err != nil {
		return nil, err
	}
	peo, _, ok := verify.PEO(res.ToGraph())
	if !ok {
		return nil, fmt.Errorf("elimination: extracted subgraph failed PEO validation")
	}
	return peo, nil
}
