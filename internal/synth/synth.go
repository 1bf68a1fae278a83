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

// GNM returns a uniform random simple graph with n vertices and m
// distinct edges (Erdős–Rényi G(n,m)). It panics if m exceeds the
// number of possible edges. An optional trailing workers argument
// bounds the parallel CSR construction (0 or omitted = machine width).
func GNM(n int, m int64, seed uint64, workers ...int) *graph.Graph {
	max := int64(n) * int64(n-1) / 2
	if m > max {
		panic(fmt.Sprintf("synth: GNM m=%d exceeds %d possible edges", m, max))
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
	return graph.BuildFromEdgesWorkers(n, us, vs, workerArg(workers))
}

// WattsStrogatz returns a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors on each side, with every
// edge's far endpoint rewired uniformly at random with probability
// beta. beta=0 is the lattice, beta=1 nearly random; intermediate
// values give the high-clustering short-path regime. An optional
// trailing workers argument bounds the parallel CSR construction.
func WattsStrogatz(n, k int, beta float64, seed uint64, workers ...int) *graph.Graph {
	if k < 1 || 2*k >= n {
		panic("synth: WattsStrogatz requires 1 <= k < n/2")
	}
	if beta < 0 || beta > 1 {
		panic("synth: WattsStrogatz beta out of [0,1]")
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
	return graph.BuildFromEdgesWorkers(n, us, vs, workerArg(workers))
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, an edge whenever two points lie within radius.
// Bucketing by a radius-sized grid keeps construction near-linear for
// sparse regimes. These mesh-like graphs are the classic "easy to
// partition" counterpoint to the paper's scale-free inputs. An optional
// trailing workers argument bounds the parallel scan and construction.
func RandomGeometric(n int, radius float64, seed uint64, workers ...int) *graph.Graph {
	if radius <= 0 || radius > 1 {
		panic("synth: RandomGeometric radius out of (0,1]")
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
	return graph.BuildFromEdgesWorkers(n, us, vs, workerArg(workers))
}

// GeometricRadiusForDegree returns the radius that gives a random
// geometric graph an expected average degree near target.
func GeometricRadiusForDegree(n int, target float64) float64 {
	// E[deg] ~ n * pi * r^2 ignoring boundary effects.
	return math.Sqrt(target / (math.Pi * float64(n)))
}

// KTree returns a k-tree on n vertices: a (k+1)-clique grown by
// repeatedly attaching a new vertex to a uniformly chosen existing
// k-clique. k-trees are exactly the maximal graphs of treewidth k and
// are chordal by construction; vertex ids follow construction order,
// so ascending ids are a perfect elimination ordering in reverse. An
// optional trailing workers argument bounds the parallel construction.
func KTree(n, k int, seed uint64, workers ...int) *graph.Graph {
	if k < 1 || n < k+1 {
		panic("synth: KTree requires 1 <= k and n >= k+1")
	}
	rng := xrand.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	// Seed clique.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	// The attachable k-cliques, back to back in one flat list (clique i
	// is cliques[i*k : (i+1)*k]): every k-subset of the root, then k per
	// attached vertex.
	cliques := make([]int32, 0, k*(k+1+(n-k-1)*k))
	for drop := 0; drop <= k; drop++ {
		for v := 0; v <= k; v++ {
			if v != drop {
				cliques = append(cliques, int32(v))
			}
		}
	}
	for v := int32(k + 1); v < int32(n); v++ {
		i := rng.Intn(len(cliques)/k) * k
		base := cliques[i : i+k]
		for _, u := range base {
			b.AddEdge(u, v)
		}
		// New attachable cliques: v plus each (k-1)-subset of base.
		for drop := range base {
			cliques = append(cliques, v)
			for j, u := range base {
				if j != drop {
					cliques = append(cliques, u)
				}
			}
		}
	}
	return b.BuildWorkers(workerArg(workers))
}

// KTreePlusNoise returns a k-tree with extra additional uniform random
// edges, along with the number of planted (k-tree) edges. The planted
// chordal subgraph gives a lower bound on the maximum chordal subgraph
// of the noisy graph, making these instances useful quality yardsticks
// for extraction heuristics. An optional trailing workers argument
// bounds the parallel construction.
func KTreePlusNoise(n, k int, extra int64, seed uint64, workers ...int) (*graph.Graph, int64) {
	base := KTree(n, k, seed, workers...)
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
	return graph.BuildFromEdgesWorkers(n, us, vs, workerArg(workers)), planted
}
