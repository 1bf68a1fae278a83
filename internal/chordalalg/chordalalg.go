// Package chordalalg implements the polynomial-time combinatorial
// algorithms on chordal graphs that motivate the paper: computing the
// maximum clique, the chromatic number with an optimal coloring, and a
// tree decomposition (hence treewidth). All of them are NP-hard on
// general graphs but linear-time given a perfect elimination ordering,
// which is exactly why extracting chordal subgraphs is useful.
package chordalalg

import (
	"fmt"

	"chordal/internal/graph"
	"chordal/internal/verify"
)

// PEO computes a perfect elimination ordering of g via maximum
// cardinality search (verify.PEO). It returns an error if g is not
// chordal.
func PEO(g *graph.Graph) ([]int32, error) {
	order, _, ok := verify.PEO(g)
	if !ok {
		return nil, fmt.Errorf("chordalalg: graph is not chordal")
	}
	return order, nil
}

// laterNeighbors returns, for each vertex v, its neighbors that appear
// after v in the ordering. In a PEO, {v} ∪ laterNeighbors(v) is a
// clique, and every maximal clique arises this way.
func laterNeighbors(g *graph.Graph, order []int32) [][]int32 {
	n := g.NumVertices()
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	out := make([][]int32, n)
	for _, v := range order {
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				out[v] = append(out[v], w)
			}
		}
	}
	return out
}

// MaxClique returns a maximum clique of the chordal graph g.
func MaxClique(g *graph.Graph) ([]int32, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, nil
	}
	later := laterNeighbors(g, order)
	best := int32(order[0])
	bestSize := len(later[best])
	for _, v := range order {
		if len(later[v]) > bestSize {
			best, bestSize = v, len(later[v])
		}
	}
	clique := append([]int32{best}, later[best]...)
	return clique, nil
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

// ChromaticNumber returns the chromatic number of the chordal graph g.
func ChromaticNumber(g *graph.Graph) (int, error) {
	_, k, err := Coloring(g)
	return k, err
}

// TreeDecomposition is a clique-tree-style decomposition: Bags[i] is
// the bag of vertex order[i] ({v} ∪ later neighbors), and Parent[i]
// indexes the bag this bag attaches to (-1 for roots). Width is the
// treewidth, max bag size - 1.
type TreeDecomposition struct {
	Order  []int32
	Bags   [][]int32
	Parent []int32
	Width  int
}

// Decompose builds a tree decomposition of the chordal graph g from its
// PEO: each vertex's bag is itself plus its later neighbors, attached to
// the bag of its earliest later neighbor.
func Decompose(g *graph.Graph) (*TreeDecomposition, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	later := laterNeighbors(g, order)
	td := &TreeDecomposition{
		Order:  order,
		Bags:   make([][]int32, n),
		Parent: make([]int32, n),
		Width:  0,
	}
	for i, v := range order {
		bag := append([]int32{v}, later[v]...)
		td.Bags[i] = bag
		if len(bag)-1 > td.Width {
			td.Width = len(bag) - 1
		}
		// Parent bag: the later neighbor earliest in the order.
		td.Parent[i] = -1
		var bestPos int32 = -1
		for _, w := range later[v] {
			if bestPos == -1 || pos[w] < bestPos {
				bestPos = pos[w]
			}
		}
		if bestPos >= 0 {
			td.Parent[i] = bestPos
		}
	}
	return td, nil
}

// Treewidth returns the treewidth of the chordal graph g (max clique
// size minus one).
func Treewidth(g *graph.Graph) (int, error) {
	order, err := PEO(g)
	if err != nil {
		return 0, err
	}
	return TreewidthFromPEO(g, order), nil
}

// TreewidthFromPEO is Treewidth for a caller that already holds a
// perfect elimination ordering of g; the ordering is trusted, not
// checked. The width is the largest later neighborhood, the same bag
// size Decompose reports, found in O(V + E) without building bags.
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

// MaximalCliques enumerates the maximal cliques of the chordal graph g
// (a chordal graph has at most |V| of them). Each clique is {v} ∪
// later(v) for vertices v whose clique is not contained in a
// predecessor's clique.
func MaximalCliques(g *graph.Graph) ([][]int32, error) {
	order, err := PEO(g)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	later := laterNeighbors(g, order)
	var cliques [][]int32
	for i, v := range order {
		// The clique of v is maximal unless some earlier vertex u in
		// the PEO has {v} ∪ later(v) ⊆ {u} ∪ later(u). Standard test:
		// v's clique is dominated iff some neighbor u before v in the
		// order has later-neighborhood of size |later(v)| + 1 whose
		// members include v and all of later(v); equivalently check
		// the immediately preceding attachment. Use the classical
		// counting criterion: clique is maximal iff no earlier
		// neighbor u of v satisfies |later(u)| >= |later(v)|+1 and
		// later(u) ⊇ {v} ∪ later(v).
		dominated := false
		for _, u := range g.Neighbors(v) {
			if pos[u] < int32(i) && len(later[u]) >= len(later[v])+1 {
				if containsAll(later[u], v, later[v]) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			cliques = append(cliques, append([]int32{v}, later[v]...))
		}
	}
	return cliques, nil
}

// containsAll reports whether set (a later-neighbor list) contains v and
// every element of rest. Membership is tested by linear scan; later
// lists are clique-sized, so this stays near-linear overall.
func containsAll(set []int32, v int32, rest []int32) bool {
	contains := func(x int32) bool {
		for _, y := range set {
			if y == x {
				return true
			}
		}
		return false
	}
	if !contains(v) {
		return false
	}
	for _, x := range rest {
		if !contains(x) {
			return false
		}
	}
	return true
}
