package verify

import (
	"slices"
	"testing"
	"testing/quick"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/synth"
	"chordal/internal/xrand"
)

func buildGraph(n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestIsChordalKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"empty", graph.NewBuilder(0).Build(), true},
		{"edgeless", graph.NewBuilder(5).Build(), true},
		{"single-edge", path(2), true},
		{"path-10", path(10), true},
		{"triangle", cycle(3), true},
		{"C4", cycle(4), false},
		{"C5", cycle(5), false},
		{"C6", cycle(6), false},
		{"K4", complete(4), true},
		{"K7", complete(7), true},
		{"C4-with-chord", buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}), true},
		{"C5-one-chord", buildGraph(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}), false},
		{"C5-two-chords", buildGraph(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {0, 3}}), true},
		// K3,3 contains C4s.
		{"K33", buildGraph(6, [][2]int32{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}}), false},
		// Two disjoint triangles: chordality is per-component.
		{"two-triangles", buildGraph(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}), true},
		// Triangle plus separate C4.
		{"triangle+C4", buildGraph(7, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 3}}), false},
	}
	for _, c := range cases {
		if got := IsChordal(c.g); got != c.want {
			t.Errorf("%s: IsChordal = %v, want %v", c.name, got, c.want)
		}
		// PEO returns the MCS order with the same verdict.
		order, ok := PEO(c.g)
		if ok != c.want || !slices.Equal(order, MCSOrder(c.g)) {
			t.Errorf("%s: PEO = %v, %t; want MCSOrder %v, %t", c.name, order, ok, MCSOrder(c.g), c.want)
		}
	}
}

func TestMCSOrderIsPermutation(t *testing.T) {
	g := complete(10)
	order := MCSOrder(g)
	if len(order) != 10 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 10)
	for _, v := range order {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid order %v", order)
		}
		seen[v] = true
	}
}

func TestIsPEORejectsWrongLength(t *testing.T) {
	if IsPEO(path(4), []int32{0, 1}) {
		t.Fatal("short order accepted")
	}
	// An order must be a permutation: C4 is not chordal, so no order
	// of it can pass, and an out-of-range id must not panic.
	c4 := cycle(4)
	for _, order := range [][]int32{
		{0, 0, 0, 0},
		{0, 1, 2, 2},
		{0, 1, 2, 4},
		{-1, 0, 1, 2},
		{0, 1, 2, 3, 0},
	} {
		if IsPEO(c4, order) {
			t.Errorf("IsPEO(C4, %v) accepted a non-permutation", order)
		}
		if IsPEOAdj(AdjFromGraph(c4), order) {
			t.Errorf("IsPEOAdj(C4, %v) accepted a non-permutation", order)
		}
	}
	// The same holds on a chordal graph, where any valid order passes.
	if !IsPEO(path(4), []int32{0, 1, 2, 3}) || IsPEO(path(4), []int32{0, 1, 1, 3}) {
		t.Fatal("path-4: a repeated id changed the verdict of a valid order")
	}
}

func TestIsPEOKnownOrders(t *testing.T) {
	// For the chord-split C4 {0-1-2-3-0, 0-2}: the order [1,3,0,2] is
	// a PEO (1 and 3 are simplicial); [0,1,2,3] is not, since 0's later
	// neighbors {1,2,3}... 0's neighbors are 1,2,3: 1-2 edge exists,
	// 1-3 does not -> not a PEO.
	g := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if !IsPEO(g, []int32{1, 3, 0, 2}) {
		t.Fatal("valid PEO rejected")
	}
	if IsPEO(g, []int32{0, 1, 2, 3}) {
		t.Fatal("invalid PEO accepted")
	}
}

func TestAdjFromGraph(t *testing.T) {
	g := complete(4)
	adj := AdjFromGraph(g)
	if len(adj) != 4 {
		t.Fatalf("adj size %d", len(adj))
	}
	for v := range adj {
		if len(adj[v]) != 3 {
			t.Fatalf("vertex %d degree %d", v, len(adj[v]))
		}
	}
	// Mutating the copy must not affect the graph.
	adj[0] = append(adj[0], 0)
	if g.Degree(0) != 3 {
		t.Fatal("AdjFromGraph aliases graph storage")
	}
}

func TestCanAddEdgeKnownCases(t *testing.T) {
	scratch := NewScratch(8, 0)
	// Path 0-1-2: closing 0-2 forms a triangle: allowed.
	adj := AdjFromGraph(path(3))
	if !CanAddEdge(adj, 0, 2, scratch) {
		t.Fatal("triangle closure rejected")
	}
	// Path 0-1-2-3: closing 0-3 forms C4: not allowed.
	adj = AdjFromGraph(path(4))
	if CanAddEdge(adj, 0, 3, scratch) {
		t.Fatal("C4 closure accepted")
	}
	// Disconnected vertices: always allowed.
	adj = AdjFromGraph(buildGraph(4, [][2]int32{{0, 1}, {2, 3}}))
	if !CanAddEdge(adj, 0, 2, scratch) {
		t.Fatal("cross-component edge rejected")
	}
	// Two vertex-disjoint paths between endpoints, common neighborhood
	// empty: adding creates a chordless cycle.
	adj = AdjFromGraph(buildGraph(6, [][2]int32{{0, 1}, {1, 5}, {0, 2}, {2, 3}, {3, 5}}))
	if CanAddEdge(adj, 0, 5, scratch) {
		t.Fatal("long-cycle closure accepted")
	}
	// A nil scratch allocates internally and agrees.
	if CanAddEdge(adj, 0, 5, nil) {
		t.Fatal("nil-scratch call disagrees")
	}
}

// referenceCanAddEdge is the pre-epoch-set implementation of the
// separator criterion, kept verbatim as the oracle for the equivalence
// property test: mark-and-restore over a plain []int32 scratch.
func referenceCanAddEdge(adj [][]int32, u, v int32, scratch []int32) bool {
	const (
		inSep   = 1
		visited = 2
	)
	for _, x := range adj[u] {
		scratch[x] = inSep
	}
	sep := make([]int32, 0, len(adj[u]))
	for _, x := range adj[v] {
		if scratch[x] == inSep {
			sep = append(sep, x)
		}
	}
	for _, x := range adj[u] {
		scratch[x] = 0
	}
	for _, x := range sep {
		scratch[x] = inSep
	}
	queue := []int32{u}
	seen := []int32{u}
	scratch[u] = visited
	reached := false
	for len(queue) > 0 && !reached {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, y := range adj[x] {
			if y == v {
				reached = true
				break
			}
			if scratch[y] == 0 {
				scratch[y] = visited
				seen = append(seen, y)
				queue = append(queue, y)
			}
		}
	}
	for _, x := range seen {
		scratch[x] = 0
	}
	for _, x := range sep {
		scratch[x] = 0
	}
	return !reached
}

// TestCanAddEdgeMatchesReference pins the epoch-set rewrite against the
// original mark-and-restore implementation on random graphs, with the
// Scratch reused (dirty) across every query — the reuse pattern of the
// border-admission and repair passes.
func TestCanAddEdgeMatchesReference(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 4 + int(nRaw%60)
		rng := xrand.NewXoshiro256(seed)
		adj := make([][]int32, n)
		ref := make([]int32, n)
		sc := NewScratch(n, 4) // low threshold: exercise the cache
		for k := 0; k < int(mRaw%300); k++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v || contains(adj[u], v) {
				continue
			}
			want := referenceCanAddEdge(adj, u, v, ref)
			if sc.CanAddEdge(adj, u, v) != want {
				return false
			}
			// HasCommonNeighbor must match a direct intersection scan.
			common := false
			for _, x := range adj[u] {
				if contains(adj[v], x) {
					common = true
					break
				}
			}
			if sc.HasCommonNeighbor(adj, u, v) != common {
				return false
			}
			if want {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				sc.Invalidate()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCanAddEdgeMatchesFullRecheck(t *testing.T) {
	// Property: the separator criterion agrees with a full chordality
	// re-check on random chordal graphs. Build chordal graphs by
	// extracting from random graphs via repeated safe insertions.
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 4 + int(nRaw%40)
		rng := xrand.NewXoshiro256(seed)
		// Grow a random chordal graph by inserting random safe edges.
		adj := make([][]int32, n)
		scratch := NewScratch(n, 0)
		for k := 0; k < int(mRaw%200); k++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v || contains(adj[u], v) {
				continue
			}
			if scratch.CanAddEdge(adj, u, v) {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				if !IsChordalAdj(adj) {
					return false // criterion admitted a bad edge
				}
			} else {
				// Verify the rejection: adding must break chordality.
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				broken := !IsChordalAdj(adj)
				adj[u] = adj[u][:len(adj[u])-1]
				adj[v] = adj[v][:len(adj[v])-1]
				if !broken {
					return false // criterion rejected a good edge
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func contains(s []int32, x int32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

func TestCanAddEdgeScratchReuse(t *testing.T) {
	// A Scratch carries no state between calls: the same query must
	// answer identically on a fresh scratch and on one dirtied by
	// unrelated queries against other graphs.
	adj := AdjFromGraph(complete(6))
	adj[0] = adj[0][:0] // detach 0: then 0-1 is addable
	adj[1] = adj[1][:4]
	fresh := NewScratch(6, 0)
	want := fresh.CanAddEdge(adj, 0, 1)
	dirty := NewScratch(6, 0)
	dirty.CanAddEdge(AdjFromGraph(path(6)), 0, 5)
	dirty.HasCommonNeighbor(AdjFromGraph(complete(6)), 2, 3)
	if dirty.CanAddEdge(adj, 0, 1) != want {
		t.Fatal("dirty scratch changed the answer")
	}
}

func TestAuditMaximality(t *testing.T) {
	// Take C4: the extracted chordal subgraph 0-1-2-3 (path) is
	// maximal, so the audit of a FULL path against C4 finds nothing;
	// but a 2-edge subgraph has addable edges.
	g := cycle(4)
	full := path(4)
	if v := AuditMaximality(g, full, 0); len(v) != 0 {
		t.Fatalf("maximal subgraph audited %d violations", len(v))
	}
	sub := buildGraph(4, [][2]int32{{0, 1}, {1, 2}})
	v := AuditMaximality(g, sub, 0)
	if len(v) == 0 {
		t.Fatal("non-maximal subgraph audited clean")
	}
	// Limit respected.
	if v := AuditMaximality(g, buildGraph(4, nil), 2); len(v) != 2 {
		t.Fatalf("limit ignored: %d", len(v))
	}
}

func TestIsMaximalChordal(t *testing.T) {
	g := cycle(4)
	if !IsMaximalChordal(g, path(4)) {
		t.Fatal("path-in-C4 should be maximal chordal")
	}
	if IsMaximalChordal(g, buildGraph(4, [][2]int32{{0, 1}})) {
		t.Fatal("single edge in C4 is not maximal")
	}
	if IsMaximalChordal(g, g) {
		t.Fatal("C4 itself is not chordal")
	}
}

func TestMCSOnAdjAgreesWithGraph(t *testing.T) {
	g := complete(8)
	a := MCSOrder(g)
	b := MCSOrderAdj(AdjFromGraph(g))
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	// Both must be PEOs of K8 (any order is).
	if !IsPEO(g, a) || !IsPEOAdj(AdjFromGraph(g), b) {
		t.Fatal("MCS order not a PEO of K8")
	}
}

// BenchmarkPEOSmallWorld certifies the one-worker parallel extraction
// of the ring-lattice small world ws:20000:8:0.1:42: the MCS order and
// the follower test the verify stage runs once per run.
func BenchmarkPEOSmallWorld(b *testing.B) {
	res, err := core.Extract(synth.WattsStrogatz(20000, 8, 0.1, 42, 1), core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	sub := res.ToGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := PEO(sub); !ok {
			b.Fatal("extracted subgraph is not chordal")
		}
	}
}
