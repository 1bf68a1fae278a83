package incremental_test

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/incremental"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
	"chordal/internal/xrand"
)

// must returns a generator's graph and panics on its error: every
// generator call in this package's tests names parameters inside the
// generator's bounds.
func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// adjOf returns the slice-of-slices adjacency of n vertices and edges.
func adjOf(n int, edges [][2]int32) [][]int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}

// pathAdj is the path 0-1-...-(n-1).
func pathAdj(n int) [][]int32 {
	var edges [][2]int32
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)})
	}
	return adjOf(n, edges)
}

// completeAdj is K_n.
func completeAdj(n int) [][]int32 {
	var edges [][2]int32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	return adjOf(n, edges)
}

func TestCanAddEdgeKnownCases(t *testing.T) {
	checker := incremental.NewChecker(8)
	// Path 0-1-2: closing 0-2 forms a triangle: allowed.
	if !checker.CanAddEdge(pathAdj(3), 0, 2) {
		t.Fatal("triangle closure rejected")
	}
	// Path 0-1-2-3: closing 0-3 forms C4: not allowed.
	if checker.CanAddEdge(pathAdj(4), 0, 3) {
		t.Fatal("C4 closure accepted")
	}
	// Disconnected vertices: always allowed.
	if !checker.CanAddEdge(adjOf(4, [][2]int32{{0, 1}, {2, 3}}), 0, 2) {
		t.Fatal("cross-component edge rejected")
	}
	// Two vertex-disjoint paths between endpoints, common neighborhood
	// empty: adding creates a chordless cycle.
	adj := adjOf(6, [][2]int32{{0, 1}, {1, 5}, {0, 2}, {2, 3}, {3, 5}})
	if checker.CanAddEdge(adj, 0, 5) {
		t.Fatal("long-cycle closure accepted")
	}
	// A fresh checker agrees with the reused one.
	if incremental.NewChecker(6).CanAddEdge(adj, 0, 5) {
		t.Fatal("fresh checker disagrees")
	}
}

// referenceCanAddEdge is the pre-epoch-set implementation of the
// separator criterion, kept verbatim as the oracle for the equivalence
// property test: mark-and-restore over a plain []int32 scratch, and
// always a search from u, whichever endpoint has the shorter list.
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
// Checker reused (dirty) across every query — the reuse pattern of the
// border-admission and repair passes.
func TestCanAddEdgeMatchesReference(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 4 + int(nRaw%60)
		rng := xrand.NewXoshiro256(seed)
		adj := make([][]int32, n)
		ref := make([]int32, n)
		sc := incremental.NewChecker(n)
		for k := 0; k < int(mRaw%300); k++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v || slices.Contains(adj[u], v) {
				continue
			}
			want := referenceCanAddEdge(adj, u, v, ref)
			if sc.CanAddEdge(adj, u, v) != want {
				return false
			}
			if want {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
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
		checker := incremental.NewChecker(n)
		for k := 0; k < int(mRaw%200); k++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v || slices.Contains(adj[u], v) {
				continue
			}
			if checker.CanAddEdge(adj, u, v) {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				if !verify.IsChordalAdj(adj) {
					return false // criterion admitted a bad edge
				}
			} else {
				// Verify the rejection: adding must break chordality.
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
				broken := !verify.IsChordalAdj(adj)
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

func TestCanAddEdgeScratchReuse(t *testing.T) {
	// A Checker carries no state between calls: the same query must
	// answer identically on a fresh checker and on one dirtied by
	// unrelated queries against other graphs.
	adj := completeAdj(6)
	adj[0] = adj[0][:0] // detach 0: then 0-1 is addable
	adj[1] = adj[1][:4]
	fresh := incremental.NewChecker(6)
	want := fresh.CanAddEdge(adj, 0, 1)
	dirty := incremental.NewChecker(6)
	dirty.CanAddEdge(pathAdj(6), 0, 5)
	if dirty.CanAddEdge(adj, 0, 1) != want {
		t.Fatal("dirty checker changed the answer")
	}
}

// TestCheckerSharedMarkSet decides, on one reused Checker, checks whose
// marks fall on vertex 1 in both roles: the search of {5, 0} marks 1,
// and 1 is in the separators of {0, 4} and {0, 3}. The separator and
// the search share one mark set, so each check must start from a set
// that holds only its own separator: a stale mark from the previous
// check would block the path that rejects {0, 4} or {5, 0}, and a
// separator dropped before the search would let {0, 3}'s search through.
func TestCheckerSharedMarkSet(t *testing.T) {
	// 1 fans over the path 0-2-3-4, and 5 hangs from 3.
	adj := adjOf(6, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {3, 4}, {3, 5}})
	c := incremental.NewChecker(6)
	ref := make([]int32, 6)
	for i, q := range []struct {
		u, v int32
		want bool
	}{
		{5, 0, false}, // searched from 5: marks 3, then 1, 2 and 4, then reaches 0
		{0, 4, false}, // separator {1}, marked by the last search; 0-2-3-4 avoids it
		{5, 0, false}, // the reverse order: the search after the separator {1}
		{0, 3, true},  // separator {1, 2}, every neighbor of 0
		{0, 4, false}, // after a separator that held 2, the first step of 0-2-3-4
	} {
		if want := referenceCanAddEdge(adj, q.u, q.v, ref); want != q.want {
			t.Fatalf("check %d: the oracle decides {%d,%d} %t, want %t", i, q.u, q.v, want, q.want)
		}
		if got := c.CanAddEdge(adj, q.u, q.v); got != q.want {
			t.Fatalf("check %d: CanAddEdge(%d,%d) = %t on the reused Checker, oracle %t", i, q.u, q.v, got, q.want)
		}
	}
}

// borderReplay runs the k-tree border admission the sharded engine runs
// on g = synth.KTree(800, 24, 501): g cut into 4 contiguous id ranges,
// every interior edge seeded (an induced subgraph of a chordal graph is
// chordal, so each shard keeps all of its own), then every cross edge
// admitted in ascending (u, v) order. It returns the Maintainer.
func borderReplay(tb testing.TB, g *graph.Graph) *incremental.Maintainer {
	const shards = 4
	n := g.NumVertices()
	part := func(v int32) int { return int(v) * shards / n }
	m := incremental.New(n)
	var cross []incremental.Edge
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			switch {
			case v < u:
			case part(u) == part(v):
				m.Seed(u, v)
			default:
				cross = append(cross, incremental.Edge{U: u, V: v})
			}
		}
	}
	for _, e := range cross {
		if ok, reason := m.Admit(e.U, e.V); !ok {
			tb.Fatalf("Admit(%d,%d) = %s; every k-tree edge is admissible", e.U, e.V, reason)
		}
	}
	return m
}

// TestBorderAdmissionSearchWork pins the intersection and search work
// of borderReplay. A count of adjacency entries, unlike a wall-clock
// bound, fails on a shared runner when the search goes back to walking
// the merged graph or the hub cache stops hitting.
func TestBorderAdmissionSearchWork(t *testing.T) {
	m := borderReplay(t, must(synth.KTree(800, 24, 501)))
	// Searching from the endpoint with the shorter list reads 1 482 088
	// entries here; searching from u alone read 222 394 897, most of the
	// merged graph per admitted edge.
	const searched = 1482088
	if got := m.SearchScanned(); got > 2*searched {
		t.Fatalf("border admission scanned %d adjacency entries, want at most 2×%d", got, searched)
	}
	// One intersection per check, with the last marked list kept across
	// admissions, marks 13 331 entries (13 396 of 13 770 checks hit the
	// kept marking). Marking the longer list afresh for every check
	// marks 4 866 941; a pre-filter plus a second marking of N(u) per
	// check, with the cache dropped after every admission, marked
	// 9 733 847.
	const marked = 13331
	if got := m.SearchMarked(); got > 2*marked {
		t.Fatalf("border admission marked %d adjacency entries, want at most 2×%d", got, marked)
	}
}

// repairInput returns the input of the repair pass that
// TestRepairSearchWork pins and BenchmarkRepairPass times: rmat-b:11,
// the stream-ingest benchmark's graph, as an edge stream, its vertex
// count, and core's one-worker kernel edges of it.
func repairInput(tb testing.TB) (n int, kept []incremental.Edge, input incremental.EdgeStream) {
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 11, 42))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Extract(g, core.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return g.NumVertices(), res.Edges, func(fn func(u, v int32) bool) error { g.EdgesWhile(fn); return nil }
}

// TestRepairSearchWork pins the intersection and search work of the
// repair pass on repairInput, run through Reconcile as core's
// RepairMaximality runs it: the kernel's edge set seeded, every input
// edge offered in graph order, then the retests to the fixpoint. The
// counts were taken while core ran its own copy of the pass; the bound
// leaves 2× for a change that costs more per check.
func TestRepairSearchWork(t *testing.T) {
	n, kept, input := repairInput(t)
	scanned, marked, err := incremental.ReconcileWork(context.Background(), n, kept, input,
		incremental.Passes{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	// 373 repaired edges on 14 119 input edges, 3 046 kept by the
	// kernel.
	const searched = 29350782
	if scanned > 2*searched {
		t.Fatalf("repair scanned %d adjacency entries, want at most 2×%d", scanned, searched)
	}
	const marks = 39753
	if marked > 2*marks {
		t.Fatalf("repair marked %d adjacency entries, want at most 2×%d", marked, marks)
	}
}

// BenchmarkBorderAdmission times borderReplay, seeding included.
//
//	go test -bench=BorderAdmission -run '^$' ./internal/incremental
func BenchmarkBorderAdmission(b *testing.B) {
	g := must(synth.KTree(800, 24, 501))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		borderReplay(b, g)
	}
}

// BenchmarkRepairPass times Reconcile's repair pass on repairInput,
// building the Maintainer included.
//
//	go test -bench=RepairPass -run '^$' ./internal/incremental
func BenchmarkRepairPass(b *testing.B) {
	n, kept, input := repairInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := incremental.Reconcile(context.Background(), n, kept, input, incremental.Passes{Repair: true}); err != nil {
			b.Fatal(err)
		}
	}
}
