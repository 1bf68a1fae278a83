package main

import (
	"hash/fnv"
	"io"
	"os"

	"chordal/internal/graph"
)

// This file holds the output checks. They are written here rather than
// borrowed from the program, so a bug in the program's own verifier
// cannot hide a wrong result.

// edgeHash is the FNV-1a hash of a graph's vertex count and its edges
// {u, v}, u < v, in adjacency order: equal hashes mean the same edge set
// over the same vertices.
func edgeHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:4])
	}
	put(int32(g.NumVertices()))
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				put(u)
				put(v)
			}
		}
	}
	return h.Sum64()
}

// fileHash is the FNV-1a hash and the size of a file's bytes.
func fileHash(path string) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	n, err := io.Copy(h, f)
	return h.Sum64(), n, err
}

// isChordal reports whether g is chordal: maximum cardinality search
// visits the vertices, and every vertex's earlier-visited neighbours
// must form a clique (Tarjan and Yannakakis, 1984). The clique test is
// grouped by each vertex's latest earlier neighbour, so the whole check
// is O(V + E).
func isChordal(g *graph.Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	// Maximum cardinality search over weight buckets kept as
	// doubly linked lists.
	weight := make([]int32, n)
	head := make([]int32, n+1)
	next := make([]int32, n)
	prev := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	insert := func(v int32) {
		w := weight[v]
		prev[v], next[v] = -1, head[w]
		if head[w] >= 0 {
			prev[head[w]] = v
		}
		head[w] = v
	}
	remove := func(v int32) {
		if prev[v] >= 0 {
			next[prev[v]] = next[v]
		} else {
			head[weight[v]] = next[v]
		}
		if next[v] >= 0 {
			prev[next[v]] = prev[v]
		}
	}
	for v := int32(0); v < int32(n); v++ {
		insert(v)
	}
	pos := make([]int32, n)
	visited := make([]bool, n)
	top := int32(0)
	for i := int32(0); i < int32(n); i++ {
		for head[top] < 0 {
			top--
		}
		v := head[top]
		remove(v)
		visited[v] = true
		pos[v] = i
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				remove(w)
				weight[w]++
				insert(w)
				top = max(top, weight[w])
			}
		}
	}

	// follow[v] is v's latest-visited earlier neighbour; group the
	// vertices by it.
	follow := make([]int32, n)
	count := make([]int32, n+1)
	for v := int32(0); v < int32(n); v++ {
		f := int32(-1)
		for _, w := range g.Neighbors(v) {
			if pos[w] < pos[v] && (f < 0 || pos[w] > pos[f]) {
				f = w
			}
		}
		follow[v] = f
		if f >= 0 {
			count[f+1]++
		}
	}
	for i := 1; i <= n; i++ {
		count[i] += count[i-1]
	}
	group := make([]int32, count[n])
	fill := append([]int32(nil), count[:n]...)
	for v := int32(0); v < int32(n); v++ {
		if f := follow[v]; f >= 0 {
			group[fill[f]] = v
			fill[f]++
		}
	}
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for u := int32(0); u < int32(n); u++ {
		for _, w := range g.Neighbors(u) {
			mark[w] = u
		}
		for _, v := range group[count[u]:count[u+1]] {
			for _, w := range g.Neighbors(v) {
				if w != u && pos[w] < pos[v] && mark[w] != u {
					return false
				}
			}
		}
	}
	return true
}
