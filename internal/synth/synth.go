// Package synth provides additional graph families beyond the paper's
// test suite — its conclusion announces experiments "with a broader set
// of inputs", and these are the standard families such a study would
// use: uniform random graphs, small-world rewirings, random geometric
// (mesh-like) graphs, and partial k-trees with known chordal ground
// truth. The last family is particularly useful for validation: a
// k-tree is chordal by construction, so extraction must retain all of
// it, and the planted instance bounds how much of a k-tree-plus-noise
// graph any maximal chordal subgraph can miss.
package synth

import (
	"fmt"
	"math"
	"math/bits"

	"chordal/internal/graph"
	"chordal/internal/parallel"
	"chordal/internal/xrand"
)

// workerArg resolves the optional trailing workers argument the
// generators accept: the bound for parallel construction phases, with
// 0 (or omitted) meaning machine width. The sampled edge set never
// depends on it.
func workerArg(workers []int) int {
	if len(workers) > 0 {
		return workers[0]
	}
	return 0
}

// CheckGNM reports whether GNM accepts its parameters: n ≥ 0 and
// 0 ≤ m ≤ n(n−1)/2, the number of possible edges.
func CheckGNM(n int, m int64) error {
	if n < 0 || m < 0 {
		return fmt.Errorf("synth: GNM needs n >= 0 and m >= 0, got n=%d m=%d", n, m)
	}
	// A product n(n−1) past 64 bits halves to more than any int64 m.
	if hi, lo := bits.Mul64(uint64(n), uint64(n-1)); hi == 0 && uint64(m) > lo/2 {
		return fmt.Errorf("synth: GNM m=%d exceeds the %d possible edges on %d vertices", m, lo/2, n)
	}
	return nil
}

// GNM returns a uniform random simple graph with n vertices and m
// distinct edges (Erdős–Rényi G(n,m)). It returns CheckGNM's error on
// parameters outside its bounds. An optional trailing workers argument
// bounds the parallel CSR construction (0 or omitted = machine width).
func GNM(n int, m int64, seed uint64, workers ...int) (*graph.Graph, error) {
	if err := CheckGNM(n, m); err != nil {
		return nil, err
	}
	rng := xrand.NewXoshiro256(seed)
	us := make([]int32, 0, m)
	vs := make([]int32, 0, m)
	seen := make(map[int64]bool, m)
	for int64(len(us)) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)<<32 | int64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		us = append(us, u)
		vs = append(vs, v)
	}
	return graph.BuildFromEdges(n, us, vs, workerArg(workers)), nil
}

// CheckWattsStrogatz reports whether WattsStrogatz accepts its
// parameters: 1 ≤ k, 2k < n and beta ∈ [0, 1].
func CheckWattsStrogatz(n, k int, beta float64) error {
	if k < 1 || k >= n-k {
		return fmt.Errorf("synth: WattsStrogatz needs 1 <= k and 2k < n, got n=%d k=%d", n, k)
	}
	if !(beta >= 0 && beta <= 1) {
		return fmt.Errorf("synth: WattsStrogatz beta %v out of [0,1]", beta)
	}
	return nil
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors on each side, with every
// edge's far endpoint rewired uniformly at random with probability
// beta. beta=0 is the lattice, beta=1 nearly random; intermediate
// values give the high-clustering short-path regime. It emits n·k
// endpoint pairs, so the graph has n·k edges less the duplicates and
// self loops that rewiring makes. It returns CheckWattsStrogatz's error
// on parameters outside its bounds. An optional trailing workers
// argument bounds the parallel CSR construction.
func WattsStrogatz(n, k int, beta float64, seed uint64, workers ...int) (*graph.Graph, error) {
	if err := CheckWattsStrogatz(n, k, beta); err != nil {
		return nil, err
	}
	rng := xrand.NewXoshiro256(seed)
	us := make([]int32, 0, n*k)
	vs := make([]int32, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			w := (v + j) % n
			if rng.Float64() < beta {
				// Rewire to a uniform random endpoint; duplicates and
				// self loops are dropped by the builder.
				w = rng.Intn(n)
			}
			us = append(us, int32(v))
			vs = append(vs, int32(w))
		}
	}
	return graph.BuildFromEdges(n, us, vs, workerArg(workers)), nil
}

// CheckRandomGeometric reports whether RandomGeometric accepts its
// parameters: n ≥ 0 and radius ∈ (0, 1].
func CheckRandomGeometric(n int, radius float64) error {
	if n < 0 {
		return fmt.Errorf("synth: RandomGeometric needs n >= 0, got %d", n)
	}
	if !(radius > 0 && radius <= 1) {
		return fmt.Errorf("synth: RandomGeometric radius %v out of (0,1]", radius)
	}
	return nil
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, an edge whenever two points lie within radius.
// Bucketing by a radius-sized grid keeps construction near-linear for
// sparse regimes. These mesh-like graphs are the classic "easy to
// partition" counterpoint to the paper's scale-free inputs. It returns
// CheckRandomGeometric's error on parameters outside its bounds. An
// optional trailing workers argument bounds the parallel scan and
// construction.
func RandomGeometric(n int, radius float64, seed uint64, workers ...int) (*graph.Graph, error) {
	if err := CheckRandomGeometric(n, radius); err != nil {
		return nil, err
	}
	rng := xrand.NewXoshiro256(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	grid := make(map[[2]int][]int32)
	cellOf := func(i int) [2]int {
		return [2]int{int(xs[i] * float64(cells)), int(ys[i] * float64(cells))}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		grid[c] = append(grid[c], int32(i))
	}
	// The grid is read-only from here on, so the O(n)-cell neighbor scan
	// parallelizes over points into per-worker edge buffers; the final
	// graph is schedule-independent because the CSR build canonicalizes
	// edge order.
	w := parallel.WorkersFor(n, 1024)
	if bound := workerArg(workers); bound > 0 && w > bound {
		w = bound
	}
	bufs := parallel.NewEdgeBuffers(w)
	r2 := radius * radius
	parallel.For(n, w, 256, func(worker, i int) {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= int32(i) {
						continue
					}
					ddx := xs[i] - xs[j]
					ddy := ys[i] - ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						bufs.Add(worker, int32(i), j)
					}
				}
			}
		}
	})
	us, vs := bufs.Concat()
	return graph.BuildFromEdges(n, us, vs, workerArg(workers)), nil
}

// GeometricRadiusForDegree returns the radius that gives a random
// geometric graph an expected average degree near target.
func GeometricRadiusForDegree(n int, target float64) float64 {
	// E[deg] ~ n * pi * r^2 ignoring boundary effects.
	return math.Sqrt(target / (math.Pi * float64(n)))
}

// CheckKTree reports whether KTree accepts its parameters: k ≥ 1 and
// n ≥ k+1.
func CheckKTree(n, k int) error {
	if k < 1 || n <= k {
		return fmt.Errorf("synth: KTree needs 1 <= k and n >= k+1, got n=%d k=%d", n, k)
	}
	return nil
}

// KTree returns a k-tree on n vertices: a (k+1)-clique grown by
// repeatedly attaching a new vertex to a uniformly chosen existing
// k-clique. k-trees are exactly the maximal graphs of treewidth k and
// are chordal by construction; vertex ids follow construction order,
// so ascending ids are a perfect elimination ordering in reverse. It
// returns CheckKTree's error on parameters outside its bounds. An
// optional trailing workers argument bounds the parallel construction.
//
// The generator keeps O(n·k) state: the two endpoint arrays, sized
// exactly for the k(k+1)/2 + (n−k−1)·k edges, and nothing else. Each
// attached vertex v stores only base(v), the k ids of the clique it
// attached to, in member order; its k edges' smaller endpoints are
// that list, so base(v) lives in the endpoint array itself. The
// attachable cliques are numbered in creation order and decoded on
// demand. Clique c ≤ k is {0..k} ∖ {c}, ascending. Clique c > k, with
// t = c − (k+1), is vertex k+1+t/k followed by that vertex's base
// without entry t mod k. Step v draws one of the (k+1) + (v−k−1)·k
// cliques that exist before it, so the draw sequence, and every graph,
// is the one of a list that materializes all of them.
func KTree(n, k int, seed uint64, workers ...int) (*graph.Graph, error) {
	if err := CheckKTree(n, k); err != nil {
		return nil, err
	}
	rng := xrand.NewXoshiro256(seed)
	root := k * (k + 1) / 2
	us := make([]int32, root+(n-k-1)*k)
	vs := make([]int32, len(us))
	// The root clique.
	e := 0
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			us[e], vs[e] = int32(i), int32(j)
			e++
		}
	}
	// Attached vertex k+1+i owns edges root+i*k onwards; the smaller
	// endpoints of those k edges are its base.
	base := func(i int) []int32 { return us[root+i*k : root+(i+1)*k] }
	for v := k + 1; v < n; v++ {
		dst := base(v - k - 1)
		if c := rng.Intn((k + 1) + (v-k-1)*k); c <= k {
			for u, j := 0, 0; u <= k; u++ {
				if u != c {
					dst[j] = int32(u)
					j++
				}
			}
		} else {
			t := c - (k + 1)
			src, drop := base(t/k), t%k
			dst[0] = int32(k + 1 + t/k)
			copy(dst[1:], src[:drop])
			copy(dst[1+drop:], src[drop+1:])
		}
		for j := range dst {
			vs[root+(v-k-1)*k+j] = int32(v)
		}
	}
	return graph.BuildFromEdges(n, us, vs, workerArg(workers)), nil
}

// KTreePlusNoise returns a k-tree with extra additional uniform random
// edges, along with the number of planted (k-tree) edges. The planted
// chordal subgraph gives a lower bound on the maximum chordal subgraph
// of the noisy graph, making these instances useful quality yardsticks
// for extraction heuristics. It returns CheckKTree's error on
// parameters outside its bounds, and an error when extra > 0 but the
// k-tree is complete (n = k+1), so that no edge can be added. An
// optional trailing workers argument bounds the parallel construction.
func KTreePlusNoise(n, k int, extra int64, seed uint64, workers ...int) (*graph.Graph, int64, error) {
	base, err := KTree(n, k, seed, workers...)
	if err != nil {
		return nil, 0, err
	}
	if extra > 0 && n == k+1 {
		return nil, 0, fmt.Errorf("synth: KTreePlusNoise cannot add %d edges to the complete %d-tree on %d vertices", extra, k, n)
	}
	planted := base.NumEdges()
	rng := xrand.NewXoshiro256(seed ^ 0x9e3779b97f4a7c15)
	us, vs := base.EdgeList()
	added := int64(0)
	for added < extra {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v || base.HasEdge(u, v) {
			continue
		}
		us = append(us, u)
		vs = append(vs, v)
		added++
	}
	return graph.BuildFromEdges(n, us, vs, workerArg(workers)), planted, nil
}
