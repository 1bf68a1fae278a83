package verify

import (
	"slices"
	"testing"

	"chordal/internal/graph"
	"chordal/internal/incremental"
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
	checker := incremental.NewChecker(n)
	b := graph.NewBuilder(n)
	for k := 0; k < m && n > 1; k++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || slices.Contains(adj[u], v) || (grow && !checker.CanAddEdge(adj, u, v)) {
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

// oracleAuditMaximality is the audit this package ran before the clique
// forest, kept as its oracle: one separator search from u avoiding
// N(u) ∩ N(v) (incremental.Checker) per edge of g absent from sub, in
// g's edge order, stopping after limit violations (limit <= 0: none).
func oracleAuditMaximality(g, sub *graph.Graph, limit int) []MaximalityViolation {
	adj := AdjFromGraph(sub)
	checker := incremental.NewChecker(len(adj))
	var out []MaximalityViolation
	g.Edges(func(u, v int32) {
		if (limit > 0 && len(out) >= limit) || sub.HasEdge(u, v) {
			return
		}
		if checker.CanAddEdge(adj, u, v) {
			out = append(out, MaximalityViolation{U: u, V: v})
		}
	})
	return out
}

// growChordal offers g's edges in a random order and keeps those the
// separator criterion admits, skipping each with probability skip/8
// first, so the chordal subgraph it returns leaves addable edges
// behind.
func growChordal(g *graph.Graph, seed uint64, skip int) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	us, vs := g.EdgeList()
	n := g.NumVertices()
	adj := make([][]int32, n)
	checker := incremental.NewChecker(n)
	b := graph.NewBuilder(n)
	for _, i := range rng.Perm(len(us)) {
		u, v := us[i], vs[i]
		if rng.Intn(8) < skip || !checker.CanAddEdge(adj, u, v) {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// checkAudit compares AuditMaximality with the oracle on one random
// graph and a chordal subgraph grown from it, at the given limit and at
// no limit, and returns the number of violations without a limit.
func checkAudit(t *testing.T, seed uint64, n, m, skip, limit int) int {
	t.Helper()
	g := randomGraph(seed, n, m, false)
	sub := growChordal(g, ^seed, skip)
	if !IsChordal(sub) {
		t.Fatalf("seed %d: grown subgraph is not chordal", seed)
	}
	// The same graphs with shuffled adjacency lists take the audit's
	// search path instead of its merge, and the forest's
	// unsorted-separator path and another MCS tie-break. A shuffled g
	// also reorders the violations, as it reorders the oracle's.
	shuffledSub := graph.ShuffleAdjacency(sub, seed)
	shuffledG := graph.ShuffleAdjacency(g, ^seed)
	violations := 0
	for _, lim := range []int{0, limit} {
		want := oracleAuditMaximality(g, sub, lim)
		if lim == 0 {
			violations = len(want)
		}
		if got := AuditMaximality(g, sub, lim); !slices.Equal(got, want) {
			t.Fatalf("seed %d, n %d, m %d, skip %d, limit %d: AuditMaximality = %v, oracle %v",
				seed, n, m, skip, lim, got, want)
		}
		if got := AuditMaximality(g, shuffledSub, lim); !slices.Equal(got, want) {
			t.Fatalf("seed %d, n %d, m %d, skip %d, limit %d, shuffled sub: AuditMaximality = %v, oracle %v",
				seed, n, m, skip, lim, got, want)
		}
		want = oracleAuditMaximality(shuffledG, sub, lim)
		if got := AuditMaximality(shuffledG, sub, lim); !slices.Equal(got, want) {
			t.Fatalf("seed %d, n %d, m %d, skip %d, limit %d, shuffled g: AuditMaximality = %v, oracle %v",
				seed, n, m, skip, lim, got, want)
		}
	}
	return violations
}

// TestAuditMaximalityMatchesOracle runs the fuzz target's check on a
// fixed grid of 300 graphs, with subgraphs grown from every offered
// edge (skip 0) down to sparse ones, and requires the grid to hold both
// clean and violating audits.
func TestAuditMaximalityMatchesOracle(t *testing.T) {
	clean, violating := 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		n := 2 + int(seed%48)
		m := int(seed * 11 % 400)
		if checkAudit(t, seed, n, m, int(seed%5), int(seed%4)) == 0 {
			clean++
		} else {
			violating++
		}
	}
	if clean == 0 || violating == 0 {
		t.Fatalf("%d clean and %d violating audits; want both", clean, violating)
	}
}

// FuzzAuditMaximality checks the clique-forest audit against the BFS
// oracle on a random graph and a chordal subgraph grown from it with
// the separator criterion, at a fuzzed limit and at no limit.
//
//	go test -fuzz=FuzzAuditMaximality -fuzztime=30s -run '^$' ./internal/verify
func FuzzAuditMaximality(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint16(9), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(12), uint16(40), uint8(2), uint8(1))
	f.Add(uint64(3), uint8(40), uint16(300), uint8(1), uint8(10))
	f.Add(uint64(4), uint8(40), uint16(80), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, mRaw uint16, skipRaw, limitRaw uint8) {
		checkAudit(t, seed, 1+int(nRaw%48), int(mRaw%500), int(skipRaw%8), int(limitRaw%16))
	})
}
