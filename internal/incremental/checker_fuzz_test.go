package incremental_test

import (
	"slices"
	"testing"

	"chordal/internal/incremental"
	"chordal/internal/xrand"
)

// FuzzCanAddEdge fuzzes the separator search against the one-sided
// oracle. The bytes are edges offered in order, then a seeded stream of
// offers grows the adjacency further; every offer is decided by the
// Checker and joins when admitted, so the adjacency stays chordal. Half
// of the random endpoints are drawn from three hubs, so the endpoint
// with the shorter list is sometimes u and sometimes v. Then, on the
// same reused Checker, every random non-edge must be decided alike from
// either endpoint and by referenceCanAddEdge, which searches from u.
//
//	go test -fuzz=FuzzCanAddEdge -fuzztime=30s -run '^$' ./internal/incremental
func FuzzCanAddEdge(f *testing.F) {
	// The graphs of TestCanAddEdgeKnownCases: two paths, two components,
	// and two vertex-disjoint 0-5 paths.
	f.Add(uint8(3), []byte{0, 1, 1, 2}, uint64(1))
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3}, uint64(2))
	f.Add(uint8(4), []byte{0, 1, 2, 3}, uint64(3))
	f.Add(uint8(6), []byte{0, 1, 1, 5, 0, 2, 2, 3, 3, 5}, uint64(4))
	f.Add(uint8(40), []byte{}, uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte, seed uint64) {
		n := max(2, int(nRaw%65))
		rng := xrand.NewXoshiro256(seed)
		hubs := [3]int32{int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))}
		pick := func() int32 {
			if rng.Intn(2) == 0 {
				return hubs[rng.Intn(len(hubs))]
			}
			return int32(rng.Intn(n))
		}
		adj := make([][]int32, n)
		ref := make([]int32, n)
		c := incremental.NewChecker(n, 0)
		// decide checks one non-edge three ways and reports the verdict.
		decide := func(u, v int32) bool {
			want := referenceCanAddEdge(adj, u, v, ref)
			if got := c.CanAddEdge(adj, u, v); got != want {
				t.Fatalf("CanAddEdge(%d,%d) = %t, oracle %t; adj %v", u, v, got, want, adj)
			}
			if got := c.CanAddEdge(adj, v, u); got != want {
				t.Fatalf("CanAddEdge(%d,%d) = %t, oracle from %d %t; adj %v", v, u, got, u, want, adj)
			}
			return want
		}
		offer := func(u, v int32) {
			if u == v || slices.Contains(adj[u], v) {
				return
			}
			if decide(u, v) {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
		for i := 0; i+1 < len(raw); i += 2 {
			offer(int32(int(raw[i])%n), int32(int(raw[i+1])%n))
		}
		for i := 0; i < 3*n; i++ {
			offer(pick(), pick())
		}
		for i := 0; i < 4*n; i++ {
			if u, v := pick(), pick(); u != v && !slices.Contains(adj[u], v) {
				decide(u, v)
			}
		}
	})
}
