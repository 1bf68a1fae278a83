package verify

import (
	"slices"
	"testing"

	"chordal/internal/graph"
	"chordal/internal/xrand"
)

// oracleIsPEO is the PEO check this package ran before the follower
// test, kept as its oracle. Each vertex v sends its later neighbors
// other than its parent p (the earliest of them) to a required list of
// p, and the list is checked against p's neighborhood when p's turn
// comes: one slice per parent. order must be a permutation.
func oracleIsPEO(g *graph.Graph, order []int32) bool {
	n := g.NumVertices()
	if len(order) != n {
		return false
	}
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	required := make([][]int32, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		v := order[i]
		if len(required[v]) > 0 {
			for _, w := range g.Neighbors(v) {
				mark[w] = int32(i)
			}
			for _, w := range required[v] {
				if mark[w] != int32(i) {
					return false
				}
			}
			required[v] = nil
		}
		var parent int32 = -1
		var parentPos int32
		for _, w := range g.Neighbors(v) {
			if pos[w] > int32(i) {
				if parent == -1 || pos[w] < parentPos {
					parent, parentPos = w, pos[w]
				}
			}
		}
		if parent == -1 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if pos[w] > int32(i) && w != parent {
				required[parent] = append(required[parent], w)
			}
		}
	}
	return true
}

// randomGraph draws m random vertex pairs on n vertices. With grow set
// it keeps only the pairs the separator criterion admits, so the graph
// stays chordal; otherwise it keeps them all.
func randomGraph(seed uint64, n, m int, grow bool) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	adj := make([][]int32, n)
	scratch := NewScratch(n, 0)
	b := graph.NewBuilder(n)
	for k := 0; k < m && n > 1; k++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || slices.Contains(adj[u], v) || (grow && !scratch.CanAddEdge(adj, u, v)) {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// orderKinds names the three orders checkOrders tries on each graph.
var orderKinds = []string{"mcs", "random", "swap"}

// checkOrders compares IsPEO and IsPEOAdj with the oracle on one random
// graph under its MCS order, a random permutation, and the MCS order
// with one adjacent pair swapped. It returns the verdict per order kind.
func checkOrders(t *testing.T, seed uint64, n, m int, grow bool) map[string]bool {
	t.Helper()
	g := randomGraph(seed, n, m, grow)
	adj := AdjFromGraph(g)
	rng := xrand.NewXoshiro256(^seed)
	mcs := MCSOrder(g)
	swapped := slices.Clone(mcs)
	if n > 1 {
		i := rng.Intn(n - 1)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	}
	orders := map[string][]int32{"mcs": mcs, "random": rng.Perm(n), "swap": swapped}
	verdicts := make(map[string]bool, len(orders))
	for _, kind := range orderKinds {
		order := orders[kind]
		want := oracleIsPEO(g, order)
		if got := IsPEO(g, order); got != want {
			t.Fatalf("seed %d, n %d, m %d, grow %t, %s order %v: IsPEO = %t, oracle %t",
				seed, n, m, grow, kind, order, got, want)
		}
		if got := IsPEOAdj(adj, order); got != want {
			t.Fatalf("seed %d, n %d, m %d, grow %t, %s order %v: IsPEOAdj = %t, oracle %t",
				seed, n, m, grow, kind, order, got, want)
		}
		verdicts[kind] = want
	}
	if grow && !verdicts["mcs"] {
		t.Fatalf("seed %d: a graph grown chordal fails under its MCS order", seed)
	}
	return verdicts
}

// TestIsPEOMatchesOracle runs the fuzz target's check on a fixed grid of
// 400 graphs (1 200 orders), half of them grown chordal, and requires
// every order kind to produce both verdicts somewhere in the grid, so
// the agreement is not that of two checks rejecting everything.
func TestIsPEOMatchesOracle(t *testing.T) {
	seen := make(map[string]map[bool]int)
	for _, kind := range orderKinds {
		seen[kind] = make(map[bool]int)
	}
	for seed := uint64(0); seed < 400; seed++ {
		n := 1 + int(seed%40)
		m := int(seed * 7 % 300)
		for kind, ok := range checkOrders(t, seed, n, m, seed%2 == 0) {
			seen[kind][ok]++
		}
	}
	for _, kind := range orderKinds {
		if seen[kind][true] == 0 || seen[kind][false] == 0 {
			t.Errorf("%s orders: %d accepted, %d rejected; want both", kind, seen[kind][true], seen[kind][false])
		}
	}
}

// FuzzIsPEO checks the follower test against oracleIsPEO on random
// small graphs, grown chordal or not, each under its MCS order, a
// random permutation, and the MCS order with one adjacent swap.
//
//	go test -fuzz=FuzzIsPEO -fuzztime=30s -run '^$' ./internal/verify
func FuzzIsPEO(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint16(9), false)
	f.Add(uint64(2), uint8(12), uint16(40), true)
	f.Add(uint64(3), uint8(40), uint16(300), true)
	f.Add(uint64(4), uint8(40), uint16(80), false)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, mRaw uint16, grow bool) {
		checkOrders(t, seed, 1+int(nRaw%48), int(mRaw%400), grow)
	})
}
