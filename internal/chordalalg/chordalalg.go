// Package chordalalg implements the polynomial-time combinatorial
// algorithms on chordal graphs that motivate the paper: computing the
// maximum clique, the chromatic number with an optimal coloring, and a
// clique tree, the tree decomposition whose bags are the maximal
// cliques (hence treewidth). All of them are NP-hard on general graphs
// but linear-time given a perfect elimination ordering, which is
// exactly why extracting chordal subgraphs is useful. The maximum
// clique and the clique tree are read from verify.CliqueForest, the
// clique forest the maximality audit builds from the same MCS order.
package chordalalg

import (
	"errors"

	"chordal/internal/graph"
	"chordal/internal/verify"
)

var errNotChordal = errors.New("chordalalg: graph is not chordal")

// PEO computes a perfect elimination ordering of g via maximum
// cardinality search (verify.PEO). It returns an error if g is not
// chordal.
func PEO(g *graph.Graph) ([]int32, error) {
	order, _, ok := verify.PEO(g)
	if !ok {
		return nil, errNotChordal
	}
	return order, nil
}

// cliqueForest returns the clique forest of the chordal graph g and
// its treewidth, both from one verify.PEO certificate.
func cliqueForest(g *graph.Graph) (*verify.CliqueForest, int, error) {
	order, width, ok := verify.PEO(g)
	if !ok {
		return nil, 0, errNotChordal
	}
	return verify.NewCliqueForest(g, order), width, nil
}

// MaxClique returns a maximum clique of the chordal graph g: the first
// clique of its clique forest whose size is the treewidth plus one, or
// nil when g has no vertices.
func MaxClique(g *graph.Graph) ([]int32, error) {
	f, width, err := cliqueForest(g)
	if err != nil {
		return nil, err
	}
	for c := range f.Len() {
		if k := f.Clique(c); len(k) == width+1 {
			return k, nil
		}
	}
	return nil, nil
}

// Coloring optimally colors the chordal graph g and returns the color
// of each vertex along with the number of colors used, which equals
// both the chromatic number and the maximum clique size (chordal graphs
// are perfect). Colors are assigned greedily in PEO-reverse order.
func Coloring(g *graph.Graph) (colors []int32, numColors int, err error) {
	order, err := PEO(g)
	if err != nil {
		return nil, 0, err
	}
	colors, numColors = ColoringFromPEO(g, order)
	return colors, numColors, nil
}

// ColoringFromPEO is Coloring for a caller that already holds a
// perfect elimination ordering of g (for example one validated by
// verify.PEO); the ordering is trusted, not checked. Runs in
// O(V + E).
func ColoringFromPEO(g *graph.Graph, order []int32) (colors []int32, numColors int) {
	n := g.NumVertices()
	colors = make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	// Reverse PEO: each vertex's already-colored neighbors form a
	// clique, so first-fit is optimal and needs at most deg+1 colors.
	var used []bool
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		deg := g.Degree(v)
		if deg+1 > cap(used) {
			used = make([]bool, deg+1)
		}
		used = used[:deg+1]
		clear(used)
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c >= 0 && int(c) < len(used) {
				used[c] = true
			}
		}
		c := int32(0)
		for used[c] {
			c++
		}
		colors[v] = c
		if int(c)+1 > numColors {
			numColors = int(c) + 1
		}
	}
	return colors, numColors
}

// TreeDecomposition is the clique tree of a chordal graph, one tree
// per connected component. Bags[i] is a maximal clique, and the bags
// are exactly the graph's maximal cliques, in the order the clique
// forest creates them. Parent[i] indexes the bag this bag attaches to,
// always below i, or is -1 for a root. Width is the treewidth, the
// largest bag's size minus one.
type TreeDecomposition struct {
	Bags   [][]int32
	Parent []int32
	Width  int
}

// Decompose returns the clique tree of the chordal graph g, read from
// its clique forest (verify.CliqueForest).
func Decompose(g *graph.Graph) (*TreeDecomposition, error) {
	f, width, err := cliqueForest(g)
	if err != nil {
		return nil, err
	}
	td := &TreeDecomposition{
		Bags:   make([][]int32, f.Len()),
		Parent: make([]int32, f.Len()),
		Width:  width,
	}
	for c := range f.Len() {
		td.Bags[c] = f.Clique(c)
		td.Parent[c] = int32(f.Parent(c))
	}
	return td, nil
}

// TreewidthFromPEO returns the treewidth of g from a perfect
// elimination ordering of it; the ordering is trusted, not checked.
// The width is the largest later neighborhood, the width Decompose
// reports, found in O(V + E) without building bags. It is the test
// oracle of the width verify.PEO returns.
func TreewidthFromPEO(g *graph.Graph, order []int32) int {
	pos := make([]int32, len(order))
	for i, v := range order {
		pos[v] = int32(i)
	}
	width := 0
	for i, v := range order {
		later := 0
		for _, w := range g.Neighbors(v) {
			if pos[w] > int32(i) {
				later++
			}
		}
		width = max(width, later)
	}
	return width
}
