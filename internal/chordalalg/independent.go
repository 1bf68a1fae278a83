package chordalalg

import (
	"chordal/internal/graph"
)

// MaximumIndependentSet returns a maximum independent set of the
// chordal graph g — NP-hard in general, linear-time here by the
// classic greedy of Gavril (1972): walk a perfect elimination ordering
// and take every vertex none of whose already-taken neighbors precede
// it; equivalently, take each simplicial vertex and discard its
// neighborhood.
func MaximumIndependentSet(g *graph.Graph) ([]int32, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	excluded := make([]bool, n)
	var set []int32
	for _, v := range order {
		if excluded[v] {
			continue
		}
		set = append(set, v)
		for _, w := range g.Neighbors(v) {
			excluded[w] = true
		}
	}
	return set, nil
}

// CliqueCover returns a partition of the chordal graph's vertices into
// the minimum number of cliques, along with that number. On perfect
// graphs the clique cover number equals the independence number, and
// the same PEO greedy produces both: each independent-set pick v opens
// the clique {v} ∪ N(v); every other vertex joins the clique opened by
// the pick that excluded it first.
func CliqueCover(g *graph.Graph) (cover [][]int32, num int, err error) {
	order, err := PEO(g)
	if err != nil {
		return nil, 0, err
	}
	n := g.NumVertices()
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	for _, v := range order {
		if owner[v] != -1 {
			continue
		}
		// v is a greedy independent-set pick: open clique index.
		idx := int32(len(cover))
		cover = append(cover, []int32{v})
		owner[v] = idx
		for _, w := range g.Neighbors(v) {
			if owner[w] == -1 {
				// Claimed by v's clique. {v} ∪ later(v) is a clique in
				// the PEO sense only for later neighbors; to guarantee
				// each part is a clique, assign w only if it is
				// adjacent to every current member — for a simplicial
				// pick, N(v) is a clique, so this always holds.
				owner[w] = idx
				cover[idx] = append(cover[idx], w)
			}
		}
	}
	return cover, len(cover), nil
}
