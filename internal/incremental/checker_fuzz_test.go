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
		c := incremental.NewChecker(n)
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

// FuzzAdmit fuzzes Maintainer.Admit, whose Checker keeps a hub's marking
// across admissions, against an oracle computed from scratch on a mirror
// adjacency: present, bridge when a BFS finds the endpoints in different
// components, admitted when referenceCanAddEdge accepts, and deferred
// otherwise. After every offer, the intersection of a random pair must
// match a direct scan of both lists. The bytes are offers made in order,
// then a seeded stream of offers follows, half of their endpoints drawn
// from three hubs, so a hub's marking is cached often and keeps
// growing while cached; a quarter of the offers the oracle accepts are
// Seeded instead of admitted, so both ways of adding an edge must keep
// the marking exact.
//
//	go test -fuzz=FuzzAdmit -fuzztime=30s -run '^$' ./internal/incremental
func FuzzAdmit(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 5, 0, 2, 2, 3, 3, 5, 0, 5}, uint64(1))
	f.Add(uint8(12), []byte{}, uint64(2))
	f.Add(uint8(24), []byte{}, uint64(3))
	f.Add(uint8(40), []byte{}, uint64(4))
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
		m := incremental.New(n)
		adj := make([][]int32, n)
		ref := make([]int32, n)
		oracle := func(u, v int32) (bool, incremental.Reason) {
			switch {
			case u == v:
				return false, incremental.ReasonInvalid
			case slices.Contains(adj[u], v):
				return false, incremental.ReasonPresent
			case !sameComponent(adj, u, v):
				return true, incremental.ReasonBridge
			case referenceCanAddEdge(adj, u, v, ref):
				return true, incremental.ReasonAdmitted
			}
			return false, incremental.ReasonDeferred
		}
		offer := func(u, v int32) {
			wantOK, wantReason := oracle(u, v)
			if wantOK && rng.Intn(4) == 0 {
				m.Seed(u, v)
			} else if ok, reason := m.Admit(u, v); ok != wantOK || reason != wantReason {
				t.Fatalf("Admit(%d,%d) = (%t, %s), oracle (%t, %s); adj %v", u, v, ok, reason, wantOK, wantReason, adj)
			}
			if wantOK {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
			if x, y := pick(), pick(); x != y {
				var want []int32
				for _, w := range adj[x] {
					if slices.Contains(adj[y], w) {
						want = append(want, w)
					}
				}
				if got := m.Intersection(x, y); !slices.Equal(got, want) {
					t.Fatalf("Intersection(%d,%d) = %v, direct scan %v; adj %v", x, y, got, want, adj)
				}
			}
		}
		for i := 0; i+1 < len(raw); i += 2 {
			offer(int32(int(raw[i])%n), int32(int(raw[i+1])%n))
		}
		for i := 0; i < 8*n; i++ {
			offer(pick(), pick())
		}
	})
}
