package verify

import (
	"math"
	"math/bits"
	"slices"

	"chordal/internal/bitset"
	"chordal/internal/graph"
)

// CliqueForest is a clique tree per connected component of a chordal
// graph, built in one pass over its maximum cardinality search (Blair &
// Peyton, "An introduction to chordal graphs and clique trees", 1993).
// Walking the MCS visit order, a vertex whose number of earlier-visited
// neighbors does not grow starts a new clique; otherwise it joins the
// current one. A new clique's parent is the clique of its starter's
// latest-visited earlier neighbor, and the tree edge weighs the number
// of those neighbors, which is the size of the separator the clique
// shares with its parent. A starter with no earlier neighbor begins a
// new tree. The rule holds for an MCS order only; an arbitrary perfect
// elimination ordering breaks it.
//
// The cliques are exactly the maximal cliques of the graph, and the
// cliques that hold any one vertex form a subtree. The maximality audit
// tests absent edges on the forest (canAdd), and chordalalg reads its
// maximum clique and clique tree from it (Len, Clique, Parent).
//
// Cliques are numbered in creation order, so a parent's number is below
// its children's. Clique c is the union of its separator
// sep[sepOff[c]:sepOff[c+1]] (ascending ids) and its own vertices, the
// run visit[ownOff[c]:ownOff[c+1]] of the visit order. Every array is
// flat: the forest takes O(V+E) space plus the binary-lifting tables,
// O(cliques · log depth).
type CliqueForest struct {
	visit []int32 // MCS visit order: the PEO reversed
	// clique[v] is the clique v joined when visited. It is the top of
	// the subtree of cliques that contain v: every later clique that
	// holds v holds it in its separator.
	clique         []int32
	ownOff, sepOff []int32
	sep            []int32
	depth, root    []int32
	// up[c*levels+k] is the 2^k-th ancestor of clique c (a root is its
	// own parent) and low[c*levels+k] the lightest tree edge on that
	// climb; a root's edge to itself weighs math.MaxInt32.
	levels  int
	up, low []int32
	// mark holds one clique's members while common counts the other's.
	mark *bitset.Epoch
}

// NewCliqueForest builds the clique forest of the chordal graph sub
// from peo, the MCS order of sub as PEO returns it (the visit order
// reversed), in O(V+E) plus the lifting tables.
func NewCliqueForest(sub *graph.Graph, peo []int32) *CliqueForest {
	n := len(peo)
	f := &CliqueForest{
		visit:  make([]int32, n),
		clique: make([]int32, n),
		mark:   bitset.NewEpoch(n),
	}
	pos := make([]int32, n)
	for i, v := range peo {
		f.visit[n-1-i] = v
		pos[v] = int32(n - 1 - i)
	}
	// At most n cliques, and the separators hold each edge at most once.
	f.ownOff = make([]int32, 0, n+1)
	f.sepOff = make([]int32, 0, n+1)
	f.sep = make([]int32, 0, sub.NumEdges())
	f.depth = make([]int32, 0, n)
	f.root = make([]int32, 0, n)
	parent, weight := make([]int32, 0, n), make([]int32, 0, n)
	prev, deepest := int32(0), int32(0)
	for i, v := range f.visit {
		step := int32(i)
		card, last := int32(0), int32(-1)
		for _, w := range sub.Neighbors(v) {
			if p := pos[w]; p < step {
				card++
				last = max(last, p)
			}
		}
		if card <= prev {
			c := int32(len(f.ownOff))
			f.ownOff = append(f.ownOff, step)
			f.sepOff = append(f.sepOff, int32(len(f.sep)))
			p, d := int32(-1), int32(0)
			if card > 0 {
				p = f.clique[f.visit[last]]
				d = f.depth[p] + 1
				for _, w := range sub.Neighbors(v) {
					if pos[w] < step {
						f.sep = append(f.sep, w)
					}
				}
				if !sub.Sorted {
					slices.Sort(f.sep[f.sepOff[c]:])
				}
			}
			parent = append(parent, p)
			weight = append(weight, card)
			f.depth = append(f.depth, d)
			deepest = max(deepest, d)
			if p < 0 {
				f.root = append(f.root, c)
			} else {
				f.root = append(f.root, f.root[p])
			}
		}
		f.clique[v] = int32(len(f.ownOff) - 1)
		prev = card
	}
	f.ownOff = append(f.ownOff, int32(n))
	f.sepOff = append(f.sepOff, int32(len(f.sep)))

	L := max(1, bits.Len32(uint32(deepest)))
	f.levels = L
	f.up = make([]int32, len(parent)*L)
	f.low = make([]int32, len(parent)*L)
	for c, p := range parent {
		w := weight[c]
		if p < 0 {
			p, w = int32(c), math.MaxInt32
		}
		row := c * L
		f.up[row], f.low[row] = p, w
		for k := 1; k < L; k++ {
			mid := int(f.up[row+k-1]) * L
			f.up[row+k] = f.up[mid+k-1]
			f.low[row+k] = min(f.low[row+k-1], f.low[mid+k-1])
		}
	}
	return f
}

// Len returns the number of cliques in the forest.
func (f *CliqueForest) Len() int { return len(f.ownOff) - 1 }

// Clique returns a new slice holding the members of clique c: its
// separator in ascending ids, then its own vertices in visit order.
func (f *CliqueForest) Clique(c int) []int32 {
	return slices.Concat(f.sep[f.sepOff[c]:f.sepOff[c+1]], f.visit[f.ownOff[c]:f.ownOff[c+1]])
}

// Parent returns the parent of clique c, which is numbered below c, or
// -1 when c is the root of its tree.
func (f *CliqueForest) Parent(c int) int {
	if p := int(f.up[c*f.levels]); p != c {
		return p
	}
	return -1
}

// canAdd reports whether the absent edge {u, v} can join the graph
// without breaking chordality (Ibarra, "Fully dynamic algorithms for
// chordal graphs and split graphs", ACM TALG 2008): exactly when u and
// v lie in different trees, or when the lightest tree edge on the path
// between the nearest cliques K_u ∋ u and K_v ∋ v weighs |K_u ∩ K_v|.
// The cliques holding u form a subtree topped by clique[u], and those
// holding v one topped by clique[v]. Unless one top is an ancestor of
// the other, the two tops are the nearest pair; otherwise the nearest
// clique to the deeper top is its deepest ancestor holding the other
// endpoint. Costs O(log n · log ω + ω).
func (f *CliqueForest) canAdd(u, v int32) bool {
	a, b := f.clique[u], f.clique[v]
	if f.root[a] != f.root[b] {
		return true
	}
	l := f.lca(a, b)
	var ku, kv, lightest int32
	switch l {
	case a:
		ku, kv = f.holder(b, u, f.depth[a]), b
		_, lightest = f.climb(kv, f.depth[kv]-f.depth[ku])
	case b:
		ku, kv = a, f.holder(a, v, f.depth[b])
		_, lightest = f.climb(ku, f.depth[ku]-f.depth[kv])
	default:
		ku, kv = a, b
		_, la := f.climb(a, f.depth[a]-f.depth[l])
		_, lb := f.climb(b, f.depth[b]-f.depth[l])
		lightest = min(la, lb)
	}
	return lightest == f.common(ku, kv)
}

// climb returns the ancestor d levels above clique x and the lightest
// tree edge on the way (math.MaxInt32 when d is 0).
func (f *CliqueForest) climb(x, d int32) (int32, int32) {
	lightest := int32(math.MaxInt32)
	for k := 0; d > 0; k, d = k+1, d>>1 {
		if d&1 != 0 {
			i := int(x)*f.levels + k
			lightest = min(lightest, f.low[i])
			x = f.up[i]
		}
	}
	return x, lightest
}

// lca returns the lowest common ancestor of two cliques of one tree.
func (f *CliqueForest) lca(a, b int32) int32 {
	if f.depth[a] < f.depth[b] {
		a, b = b, a
	}
	a, _ = f.climb(a, f.depth[a]-f.depth[b])
	if a == b {
		return a
	}
	L := f.levels
	for k := L - 1; k >= 0; k-- {
		if ya, yb := f.up[int(a)*L+k], f.up[int(b)*L+k]; ya != yb {
			a, b = ya, yb
		}
	}
	return f.up[int(a)*L]
}

// holder returns the deepest proper ancestor of clique x that holds
// vertex u, given that x does not hold u and its ancestor at depth top
// does. Below the top of u's subtree a clique holds u exactly when its
// separator does, and those cliques form an unbroken run of x's
// ancestors, so binary lifting climbs to the highest ancestor that
// does not hold u and steps to its parent.
func (f *CliqueForest) holder(x, u, top int32) int32 {
	L := f.levels
	for k := L - 1; k >= 0; k-- {
		y := f.up[int(x)*L+k]
		if f.depth[y] > top {
			if _, ok := slices.BinarySearch(f.sep[f.sepOff[y]:f.sepOff[y+1]], u); !ok {
				x = y
			}
		}
	}
	return f.up[int(x)*L]
}

// common returns |K_x ∩ K_y|.
func (f *CliqueForest) common(x, y int32) int32 {
	f.mark.Clear()
	for _, w := range f.sep[f.sepOff[x]:f.sepOff[x+1]] {
		f.mark.Add(w)
	}
	for _, w := range f.visit[f.ownOff[x]:f.ownOff[x+1]] {
		f.mark.Add(w)
	}
	count := int32(0)
	for _, w := range f.sep[f.sepOff[y]:f.sepOff[y+1]] {
		if f.mark.Contains(w) {
			count++
		}
	}
	for _, w := range f.visit[f.ownOff[y]:f.ownOff[y+1]] {
		if f.mark.Contains(w) {
			count++
		}
	}
	return count
}
