package incremental_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"chordal/internal/graph"
	"chordal/internal/incremental"
	"chordal/internal/verify"
)

// chordalNow asserts the maintained subgraph is chordal.
func chordalNow(t *testing.T, m *incremental.Maintainer, when string) {
	t.Helper()
	if hole := verify.FindHole(m.Adj()); hole != nil {
		t.Fatalf("%s: maintained subgraph has a hole %v", when, hole)
	}
}

// TestMaintainerC4 walks the canonical defer-then-repair story: the
// closing edge of a 4-cycle is deferred, and landing the chord makes a
// repair pass admit it.
func TestMaintainerC4(t *testing.T) {
	m := incremental.New(4)
	steps := []struct {
		u, v   int32
		ok     bool
		reason incremental.Reason
	}{
		{0, 1, true, incremental.ReasonBridge},
		{1, 2, true, incremental.ReasonBridge},
		{2, 3, true, incremental.ReasonBridge},
		{0, 3, false, incremental.ReasonDeferred}, // would close a chordless C4
		{3, 0, false, incremental.ReasonDeferred}, // same edge, swapped: dedup'd
		{1, 0, false, incremental.ReasonPresent},
		{2, 2, false, incremental.ReasonInvalid},
		{1, 7, false, incremental.ReasonInvalid},
		{0, 2, true, incremental.ReasonAdmitted}, // the chord: {1} separates 0|2
	}
	for _, s := range steps {
		ok, reason := m.Admit(s.u, s.v)
		if ok != s.ok || reason != s.reason {
			t.Fatalf("Admit(%d,%d) = (%t, %s), want (%t, %s)", s.u, s.v, ok, reason, s.ok, s.reason)
		}
		chordalNow(t, m, "after Admit")
	}
	if m.DeferredCount() != 1 {
		t.Fatalf("deferred %d, want 1 (the repeated {0,3} keeps one slot)", m.DeferredCount())
	}
	admitted, err := m.RepairContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0] != (graph.Edge{U: 0, V: 3}) {
		t.Fatalf("Repair admitted %v, want [{0 3}]", admitted)
	}
	chordalNow(t, m, "after Repair")
	if m.DeferredCount() != 0 || m.EdgeCount() != 5 {
		t.Fatalf("deferred %d edges %d, want 0 and 5", m.DeferredCount(), m.EdgeCount())
	}
	// The queue slot was consumed: re-offering is now "present".
	if _, reason := m.Admit(0, 3); reason != incremental.ReasonPresent {
		t.Fatalf("re-offer after repair: %s, want present", reason)
	}
}

// TestAdmitTakesReofferOffQueue: an edge deferred once and accepted
// when offered again leaves the deferred queue, and the rest of the
// queue keeps its order, so the maintained subgraph and the queue stay
// disjoint. A stream's Close rebuilds its input from their union
// without deduplicating. Before, {0,3} stayed queued after its second
// offer was admitted.
func TestAdmitTakesReofferOffQueue(t *testing.T) {
	m := incremental.New(6)
	for _, s := range []struct {
		u, v   int32
		reason incremental.Reason
	}{
		{0, 1, incremental.ReasonBridge},
		{1, 2, incremental.ReasonBridge},
		{2, 3, incremental.ReasonBridge},
		{3, 4, incremental.ReasonBridge},
		{4, 5, incremental.ReasonBridge},
		{0, 3, incremental.ReasonDeferred}, // would close a chordless C4
		{2, 5, incremental.ReasonDeferred}, // so would this one
		{0, 2, incremental.ReasonAdmitted}, // {1} separates 0|2
		{3, 0, incremental.ReasonAdmitted}, // now {2} separates 0|3
	} {
		if _, reason := m.Admit(s.u, s.v); reason != s.reason {
			t.Fatalf("Admit(%d,%d) = %s, want %s", s.u, s.v, reason, s.reason)
		}
	}
	if got, want := m.DeferredEdges(), []graph.Edge{{U: 2, V: 5}}; !slices.Equal(got, want) || m.DeferredCount() != 1 {
		t.Fatalf("deferred %v (count %d), want %v", got, m.DeferredCount(), want)
	}
	chordalNow(t, m, "after the re-offer")
}

// TestMaintainerGrow checks that growth preserves the subgraph, the
// components, and the deferred queue.
func TestMaintainerGrow(t *testing.T) {
	m := incremental.New(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}} {
		m.Admit(e[0], e[1])
	}
	m.Admit(0, 3) // deferred
	m.Grow(100)
	if m.Vertices() != 100 {
		t.Fatalf("grew to %d, want 100", m.Vertices())
	}
	if ok, reason := m.Admit(0, 99); !ok || reason != incremental.ReasonBridge {
		t.Fatalf("bridge to a new vertex: (%t, %s)", ok, reason)
	}
	if ok, _ := m.Admit(0, 2); !ok {
		t.Fatal("chord rejected after growth")
	}
	if got, err := m.RepairContext(context.Background()); err != nil || len(got) != 1 {
		t.Fatalf("deferred queue lost across Grow: repair admitted %v", got)
	}
	chordalNow(t, m, "after grow+repair")
}

// TestMaintainerRandomStream drives random deltas through the kernel
// and checks the central invariants after every repair pass: the
// subgraph stays chordal, and maintained ∪ deferred reconstructs every
// distinct valid edge offered.
func TestMaintainerRandomStream(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(42))
	m := incremental.New(n)
	offered := map[[2]int32]bool{}
	for i := 0; i < 1200; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		offered[[2]int32{u, v}] = true
		m.Admit(u, v)
		if i%200 == 199 {
			if _, err := m.RepairContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			chordalNow(t, m, "mid-stream repair")
		}
	}
	if _, err := m.RepairContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	chordalNow(t, m, "final repair")
	got := map[[2]int32]bool{}
	for _, e := range m.EdgeList() {
		got[[2]int32{e.U, e.V}] = true
	}
	for _, e := range m.DeferredEdges() {
		if got[[2]int32{e.U, e.V}] {
			t.Fatalf("edge {%d,%d} both maintained and deferred", e.U, e.V)
		}
		got[[2]int32{e.U, e.V}] = true
	}
	if len(got) != len(offered) {
		t.Fatalf("maintained ∪ deferred has %d edges, offered %d distinct", len(got), len(offered))
	}
	for e := range offered {
		if !got[e] {
			t.Fatalf("offered edge %v lost", e)
		}
	}
}

// TestReconcileStopsCanceledStream runs each pass that scans the input
// over a stream of 100 000 path edges, under a context canceled before
// Reconcile starts. The scan checks the context every 1024 edges and
// must stop the stream there, not skip the rest of it.
func TestReconcileStopsCanceledStream(t *testing.T) {
	const n = 100_001
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, p := range map[string]incremental.Passes{
		"stitch": {Stitch: true},
		"border": {Border: func(u, v int32) bool { return u%2 == 0 }, AdmitBorder: true},
		"repair": {Repair: true},
	} {
		produced := 0
		path := func(fn func(u, v int32) bool) error {
			for u := int32(0); u+1 < n; u++ {
				produced++
				if !fn(u, u+1) {
					break
				}
			}
			return nil
		}
		if _, _, err := incremental.Reconcile(ctx, n, nil, path, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: a canceled Reconcile returned %v, want context.Canceled", name, err)
		}
		if produced > 1024 {
			t.Fatalf("%s: the stream produced %d edges after the cancel, want at most 1024", name, produced)
		}
	}
}

// TestCheckerMatchesNaive cross-checks CanAddEdge against a from-scratch
// hole search on small random chordal graphs built by the Maintainer
// itself.
func TestCheckerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		const n = 14
		m := incremental.New(n)
		for i := 0; i < 40; i++ {
			m.Admit(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		chk := incremental.NewChecker(n)
		adj := m.Adj()
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if m.HasEdge(u, v) {
					continue
				}
				// The criterion applies to connected endpoints; bridges are
				// always safe and take the union-find path in Admit.
				if !sameComponent(adj, u, v) {
					continue
				}
				got := chk.CanAddEdge(adj, u, v)
				want := addKeepsChordal(adj, u, v)
				if got != want {
					t.Fatalf("trial %d: CanAddEdge(%d,%d) = %t, naive says %t", trial, u, v, got, want)
				}
			}
		}
	}
}

// sameComponent reports connectivity by BFS.
func sameComponent(adj [][]int32, u, v int32) bool {
	seen := make([]bool, len(adj))
	queue := []int32{u}
	seen[u] = true
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			return true
		}
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return false
}

// addKeepsChordal copies the adjacency, inserts {u,v}, and searches for
// a hole — the ground truth CanAddEdge must match.
func addKeepsChordal(adj [][]int32, u, v int32) bool {
	cp := make([][]int32, len(adj))
	for i := range adj {
		cp[i] = append([]int32(nil), adj[i]...)
	}
	cp[u] = append(cp[u], v)
	cp[v] = append(cp[v], u)
	return verify.FindHole(cp) == nil
}
