// Package dearing implements the serial maximal chordal subgraph
// algorithm of Dearing, Shier and Warner (Discrete Applied Mathematics,
// 1988), the baseline the paper's parallel algorithm derives from and is
// compared against conceptually.
//
// The algorithm grows the chordal subgraph one vertex at a time. Each
// unselected vertex v carries a candidate set C(v): the selected
// neighbors whose edges to v will be kept when v is selected. At every
// step the unselected vertex with the largest candidate set is selected
// and its candidate edges are added; then, for every unselected neighbor
// w of the new vertex v, v joins C(w) exactly when C(w) ⊆ C(v) — the
// same subset test the multithreaded Algorithm 1 inherits. The
// traversal is inherently sequential because each selection depends on
// all previous ones; its complexity is O(|E|·Δ).
//
// The selected candidate sets always form cliques in the grown
// subgraph, which is what makes the output chordal and maximal.
package dearing

import (
	"sort"
	"time"

	"chordal/internal/graph"
)

// Result is the output of Extract.
type Result struct {
	// Edges is the maximal chordal edge set, each with U < V, in
	// graph.SortEdges order.
	Edges []graph.Edge
	// Order is the vertex selection order (a reverse perfect
	// elimination ordering of the extracted subgraph).
	Order []int32
	// Total is the wall-clock extraction time.
	Total time.Duration
}

// NumChordalEdges returns |EC|.
func (r *Result) NumChordalEdges() int { return len(r.Edges) }

// Extract runs the serial algorithm on g, starting from vertex start
// (pass a negative value to start from vertex 0). Unreached components
// are started from their lowest-id vertex, so every vertex is selected
// exactly once.
func Extract(g *graph.Graph, start int32) *Result {
	t0 := time.Now()
	n := g.NumVertices()
	res := &Result{Order: make([]int32, 0, n)}
	if n == 0 {
		res.Total = time.Since(t0)
		return res
	}
	if start < 0 || int(start) >= n {
		start = 0
	}

	selected := make([]bool, n)
	// cand[v] is C(v), kept sorted by id so the subset test is a merge
	// scan, mirroring the optimized representation of the paper.
	cand := make([][]int32, n)

	// Max-priority selection by |C(v)| with lazy deletion: a simple
	// bucket queue over candidate-set sizes.
	buckets := make([][]int32, 1)
	inSize := make([]int32, n) // current |C(v)| for unselected v
	pushBucket := func(v int32) {
		s := inSize[v]
		for int(s) >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[s] = append(buckets[s], v)
	}
	maxSize := 0

	popMax := func() int32 {
		for maxSize >= 0 {
			b := buckets[maxSize]
			for len(b) > 0 {
				v := b[len(b)-1]
				b = b[:len(b)-1]
				buckets[maxSize] = b
				// Lazy deletion: skip entries whose size has since
				// changed or that were already selected.
				if !selected[v] && int(inSize[v]) == maxSize {
					return v
				}
			}
			maxSize--
		}
		return -1
	}

	selectVertex := func(v int32) {
		selected[v] = true
		res.Order = append(res.Order, v)
		cv := cand[v]
		for _, u := range cv {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			res.Edges = append(res.Edges, graph.Edge{U: a, V: b})
		}
		for _, w := range g.Neighbors(v) {
			if selected[w] {
				continue
			}
			if subsetSorted(cand[w], cv) {
				cand[w] = insertSorted(cand[w], v)
				inSize[w]++
				pushBucket(w)
				if int(inSize[w]) > maxSize {
					maxSize = int(inSize[w])
				}
			}
		}
	}

	// Seed with the requested start vertex, then sweep remaining
	// components in id order.
	selectVertex(start)
	remaining := n - 1
	nextSweep := int32(0)
	for remaining > 0 {
		v := popMax()
		if v < 0 {
			// Queue exhausted: start a new component at the lowest
			// unselected id. Its candidate set is empty, so no edges
			// are implied — matching the disconnected-components
			// discussion below the paper's Theorem 2.
			for selected[nextSweep] {
				nextSweep++
			}
			v = nextSweep
		}
		selectVertex(v)
		remaining--
	}

	graph.SortEdges(n, res.Edges)
	res.Total = time.Since(t0)
	return res
}

// subsetSorted reports whether sorted a ⊆ sorted b.
func subsetSorted(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// insertSorted inserts x into sorted s, preserving order.
func insertSorted(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}
