// Package incremental is the single home of dynamic-chordal-graph
// admission: deciding whether an edge can join a chordal graph without
// breaking chordality, and maintaining a chordal subgraph under an
// edge-insertion stream.
//
// The criterion is the classic dynamic-chordal-graph separator test:
// inserting the non-edge {u, v} keeps the graph chordal exactly when u
// and v lie in different connected components, or their common
// neighborhood N(u) ∩ N(v) separates u from v (then every cycle through
// the new edge gains a chord at the separator). A check is one
// intersection, which marks N(u) ∩ N(v), and one search that avoids it.
// Checker implements the test over a caller-owned adjacency with two
// epoch mark sets: one holds the separator and, during the search, the
// visited vertices as well, and the other caches the marked hub list
// across checks. Maintainer owns the adjacency and layers on a
// union-find bridge fast path, the rejection of connected endpoints
// whose intersection is empty, a hub marking kept exact across
// admissions (its lists only grow), a deferred-edge queue for rejected
// insertions, and Repair — the fixpoint retest that closes the paper's
// Theorem 2 maximality gap (DESIGN.md §5): a rejected edge can become
// addable after later admissions, so deferred edges are retested until
// a pass admits nothing.
//
// Reconcile runs the three offline passes that follow a kernel — the
// spanning stitch, the exact admission of shard-border edges, and the
// repair scan with its retest fixpoint — for both core's post-passes
// and the sharded engines' border reconciliation. Every admission site
// in the repository — those passes and the streaming sessions —
// delegates here; there is exactly one implementation of the separator
// criterion. (The maximality audit in internal/verify decides absent
// edges on a clique tree instead, and keeps this criterion as its test
// oracle.)
package incremental

import (
	"context"
	"slices"

	"chordal/internal/bitset"
	"chordal/internal/graph"
)

// Reason explains an Admit decision. The strings are stable wire values:
// the streaming admission events and the CLI's NDJSON output carry them
// verbatim.
type Reason string

// Admit outcomes.
const (
	// ReasonAdmitted: the exact separator criterion accepted the edge.
	ReasonAdmitted Reason = "admitted"
	// ReasonBridge: the endpoints were in different components, so the
	// edge is a bridge of the result — a bridge lies on no cycle, so no
	// chordless cycle can appear (the paper's remark below Theorem 2).
	ReasonBridge Reason = "bridge"
	// ReasonRepaired: a previously deferred edge admitted by Repair.
	ReasonRepaired Reason = "repaired"
	// ReasonPresent: the edge is already in the maintained subgraph.
	ReasonPresent Reason = "present"
	// ReasonDeferred: the separator criterion rejected the edge for now;
	// it is queued for retest by Repair.
	ReasonDeferred Reason = "deferred"
	// ReasonInvalid: a self loop or an endpoint outside the universe.
	ReasonInvalid Reason = "invalid"
	// ReasonOverflow: the separator criterion rejected the edge and the
	// deferred queue is at its SetMaxDeferred bound, so the edge was
	// dropped instead of queued — it will never be retested by Repair.
	ReasonOverflow Reason = "overflow"
)

// Checker is the reusable scratch state of the separator test: two
// epoch mark sets (bitset.Epoch) whose O(1) clear replaces per-call
// restore loops. sep is cleared by every check; it holds the separator
// and then the vertices the search enters. nbr holds the marked hub
// list and outlives the per-check clear. A Checker is single-owner:
// give each worker its own.
//
// Each intersection leaves its marked list in nbr, so the next checks
// against the same hub probe the other endpoint's list without marking
// the hub again (border admission tests edges in ascending-u order, so
// consecutive candidates usually share a hub). A Maintainer keeps that
// marking across admissions instead of dropping it: its lists only
// grow, and each edge it adds is added to the owner's marking.
// CanAddEdge, whose caller may change the adjacency between calls,
// drops the marking first.
type Checker struct {
	sep      *bitset.Epoch // N(u) ∩ N(v), then the vertices the search enters
	nbr      *bitset.Epoch // membership of adj[nbrOwner], the last marked list
	nbrOwner int32         // vertex whose adjacency nbr holds, or -1
	stack    []int32
	// scanned counts the adjacency entries the separator searches have
	// read, and marked the entries the intersections have marked: the
	// work a test pins, so a costlier rule fails a count rather than a
	// wall-clock bound.
	scanned, marked int64
}

// NewChecker returns a Checker for graphs with n vertices.
func NewChecker(n int) *Checker {
	return &Checker{
		sep:      bitset.NewEpoch(n),
		nbr:      bitset.NewEpoch(n),
		nbrOwner: -1,
	}
}

// CanAddEdge reports whether adding the non-edge {u, v} to the chordal
// graph with the given adjacency keeps it chordal. It uses the classic
// dynamic-chordal-graph criterion: the insertion is safe exactly when u
// and v lie in different connected components, or their common
// neighborhood separates u from v (every u-v path meets it, so every
// cycle through the new edge gains a chord at the separator). The check
// is one intersection, which marks N(u) ∩ N(v), and one depth-first
// search that avoids it (see separates). The adjacency must be chordal
// and must not already contain {u, v}; it may change freely between
// calls, because no marking is reused from an earlier call. All
// bookkeeping lives in the epoch sets of s — clearing is one epoch
// bump, so nothing is restored between calls.
func (s *Checker) CanAddEdge(adj [][]int32, u, v int32) bool {
	s.nbrOwner = -1
	s.intersect(adj, u, v)
	return s.separates(adj, u, v)
}

// intersect clears sep, marks N(u) ∩ N(v) in it and reports whether it
// is non-empty. One list is probed against a marking of the other: the
// cached marking when it belongs to an endpoint, otherwise a fresh
// marking of the longer list, which becomes the cached one.
func (s *Checker) intersect(adj [][]int32, u, v int32) bool {
	// Swap so v is the marked side.
	if s.nbrOwner != v && (s.nbrOwner == u || len(adj[u]) >= len(adj[v])) {
		u, v = v, u
	}
	if s.nbrOwner != v {
		s.nbr.Clear()
		for _, x := range adj[v] {
			s.nbr.Add(x)
		}
		s.nbrOwner = v
		s.marked += int64(len(adj[v]))
	}
	s.sep.Clear()
	common := false
	for _, x := range adj[u] {
		if s.nbr.Contains(x) {
			s.sep.Add(x)
			common = true
		}
	}
	return common
}

// linked keeps the cached marking exact after the caller appended v to
// adj[u] and u to adj[v].
func (s *Checker) linked(u, v int32) {
	switch s.nbrOwner {
	case u:
		s.nbr.Add(v)
	case v:
		s.nbr.Add(u)
	}
}

// separates reports whether sep, marked by intersect, separates u from
// v. It is a depth-first search that avoids sep, run from the endpoint
// with the shorter adjacency list (u on a tie) and looking for the
// other. A rejection stops at the first path found; an admission walks
// the searched endpoint's whole side of the separator, O(V+E) worst
// case. Starting from the shorter list makes that side the endpoint
// alone whenever its neighborhood lies inside the other's.
//
// The search marks each vertex it enters in sep too, so one tag per
// adjacency entry answers both "in the separator" and "visited". The
// target is never marked: it is not in N(u) ∩ N(v), and the search
// returns on reaching it. The next check's intersect clears the set
// before anything reads it.
func (s *Checker) separates(adj [][]int32, u, v int32) bool {
	// Reachability in G − sep is symmetric, so either endpoint decides
	// the same, but an admitted edge costs the whole component of the
	// side searched. sep lies in both lists, so the shorter list is the
	// endpoint with fewer neighbors outside the separator.
	if len(adj[v]) < len(adj[u]) {
		u, v = v, u
	}
	s.stack = append(s.stack[:0], u)
	s.sep.Add(u)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for i, y := range adj[x] {
			if y == v {
				s.scanned += int64(i + 1)
				return false
			}
			if !s.sep.Contains(y) {
				s.sep.Add(y)
				s.stack = append(s.stack, y)
			}
		}
		s.scanned += int64(len(adj[x]))
	}
	return true
}

// Maintainer holds a chordal subgraph of an n-vertex universe and
// decides edge insertions with the separator criterion. It is the one
// admission kernel shared by Reconcile and the streaming sessions.
// A Maintainer is single-owner: callers serialize access.
type Maintainer struct {
	adj     [][]int32
	checker *Checker
	// uf is a union-find over the maintained subgraph's components, by
	// size with path halving, and the repository's only one: Admit
	// takes the O(α) bridge fast path when the endpoints are in
	// different components, skipping the check entirely, and the same-
	// component fact is what licenses an empty intersection as a
	// rejection without the search (an empty separator cannot separate
	// connected vertices). Reconcile's spanning stitch runs on it alone.
	uf       []int32
	ufSize   []int32
	deferred []graph.Edge
	// inDeferred dedups the queue so a delta stream that repeats a
	// rejected edge cannot grow it without bound.
	inDeferred map[int64]struct{}
	// maxDeferred caps the queue's length (0 = unbounded): dedup alone
	// cannot stop a hostile stream of all-distinct inadmissible edges
	// from growing the queue linearly, so once the cap is reached new
	// rejections are dropped with ReasonOverflow instead of queued.
	maxDeferred int
	edges       int
}

// New returns a Maintainer over an empty subgraph of n vertices.
func New(n int) *Maintainer {
	m := components(n)
	m.open(nil)
	return m
}

// components returns a Maintainer that holds only the union-find, over
// n singleton components: no adjacency and no checker until open.
func components(n int) *Maintainer {
	m := &Maintainer{uf: make([]int32, n), ufSize: make([]int32, n)}
	for i := range m.uf {
		m.uf[i] = int32(i)
		m.ufSize[i] = 1
	}
	return m
}

// open completes a Maintainer from components: it builds the checker,
// the deferred queue's dedup map and the adjacency of edges, whose
// components the union-find must already hold, in list order.
func (m *Maintainer) open(edges []graph.Edge) {
	n := len(m.uf)
	m.adj = make([][]int32, n)
	m.checker = NewChecker(n)
	m.inDeferred = make(map[int64]struct{})
	for _, e := range edges {
		m.link(e.U, e.V)
	}
}

// Seed adds the edge {u, v} without any chordality check — the caller
// promises the seeded edge set is chordal (a kernel's extraction
// result). Seeding an edge twice, a self loop, or an out-of-range
// endpoint corrupts the invariant; Seed is for trusted bulk adoption,
// Admit for everything else.
func (m *Maintainer) Seed(u, v int32) { m.add(u, v) }

// Vertices returns the universe size.
func (m *Maintainer) Vertices() int { return len(m.adj) }

// EdgeCount returns the number of edges in the maintained subgraph.
func (m *Maintainer) EdgeCount() int { return m.edges }

// DeferredCount returns the number of rejected edges queued for Repair.
func (m *Maintainer) DeferredCount() int { return len(m.deferred) }

// SetMaxDeferred bounds the deferred queue to at most n edges (n <= 0
// means unbounded, the default). When the queue is full, Admit returns
// (false, ReasonOverflow) for a newly rejected edge and drops it — the
// memory-safety trade on adversarial streams: a dropped edge is gone
// and will not be reconsidered by later Repair passes. Lowering the
// bound does not evict edges already queued.
func (m *Maintainer) SetMaxDeferred(n int) {
	if n < 0 {
		n = 0
	}
	m.maxDeferred = n
}

// DeferredEdges returns a copy of the deferred queue in queue order.
// Together with EdgeList it reconstructs every distinct valid edge ever
// offered to Admit: each one is either in the maintained subgraph or
// still deferred, never both.
func (m *Maintainer) DeferredEdges() []graph.Edge {
	out := make([]graph.Edge, len(m.deferred))
	copy(out, m.deferred)
	return out
}

// Adj exposes the maintained adjacency. The slices alias the
// Maintainer's storage: callers must not mutate them, and the view goes
// stale on the next Admit/Repair.
func (m *Maintainer) Adj() [][]int32 { return m.adj }

// EdgeList returns the maintained edges with U < V in (U, V) order.
func (m *Maintainer) EdgeList() []graph.Edge {
	out := make([]graph.Edge, 0, m.edges)
	for u := range m.adj {
		for _, v := range m.adj[u] {
			if int32(u) < v {
				out = append(out, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	graph.SortEdges(len(m.adj), out)
	return out
}

// Grow extends the universe to n vertices (no-op when already at least
// that large). Growth reallocates the checker's epoch sets, so it is
// amortized by the session layer's doubling policy, not called per
// delta.
func (m *Maintainer) Grow(n int) {
	if n <= len(m.adj) {
		return
	}
	adj := make([][]int32, n)
	copy(adj, m.adj)
	m.adj = adj
	for i := len(m.uf); i < n; i++ {
		m.uf = append(m.uf, int32(i))
		m.ufSize = append(m.ufSize, 1)
	}
	m.checker = NewChecker(n)
}

// HasEdge reports whether {u, v} is in the maintained subgraph.
func (m *Maintainer) HasEdge(u, v int32) bool {
	a, b := u, v
	if len(m.adj[a]) > len(m.adj[b]) {
		a, b = b, a
	}
	for _, w := range m.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Admit decides the insertion of {u, v}: accepted edges join the
// maintained subgraph (chordality preserved by the separator
// criterion), rejections are queued for Repair, and the reason reports
// which path decided. The decision sequence for a given delta order is
// deterministic.
func (m *Maintainer) Admit(u, v int32) (bool, Reason) {
	return m.admit(u, v, true)
}

// admit is Admit with the deferred-queue policy explicit; Repair
// retests with deferOnReject=false so a rejected edge keeps its one
// queue slot instead of re-entering, and Reconcile decides border edges
// with it, because its repair scan queues every rejection afresh.
func (m *Maintainer) admit(u, v int32, deferOnReject bool) (bool, Reason) {
	n := int32(len(m.adj))
	if u == v || u < 0 || v < 0 || u >= n || v >= n {
		return false, ReasonInvalid
	}
	if u > v {
		u, v = v, u
	}
	if m.HasEdge(u, v) {
		return false, ReasonPresent
	}
	if m.find(u) != m.find(v) {
		m.add(u, v)
		return true, ReasonBridge
	}
	// Connected endpoints: an empty common neighborhood cannot separate
	// them, so the intersection alone rejects; otherwise the search
	// decides.
	if !m.checker.intersect(m.adj, u, v) || !m.checker.separates(m.adj, u, v) {
		if deferOnReject {
			key := int64(u)<<32 | int64(v)
			if _, dup := m.inDeferred[key]; !dup {
				if m.maxDeferred > 0 && len(m.deferred) >= m.maxDeferred {
					return false, ReasonOverflow
				}
				m.inDeferred[key] = struct{}{}
				m.deferred = append(m.deferred, graph.Edge{U: u, V: v})
			}
		}
		return false, ReasonDeferred
	}
	m.add(u, v)
	if deferOnReject {
		m.dequeue(u, v)
	}
	return true, ReasonAdmitted
}

// dequeue takes an edge that Admit just accepted off the deferred
// queue, where an earlier offer of it may wait, so the maintained
// subgraph and the queue stay disjoint. (A deferred edge never comes
// back as a bridge: its endpoints were already connected.) Repair
// retests through admit with deferOnReject false and dequeues itself.
func (m *Maintainer) dequeue(u, v int32) {
	key := int64(u)<<32 | int64(v)
	if _, ok := m.inDeferred[key]; !ok {
		return
	}
	delete(m.inDeferred, key)
	i := slices.Index(m.deferred, graph.Edge{U: u, V: v})
	m.deferred = slices.Delete(m.deferred, i, i+1)
}

// add records an edge: its adjacency (link) and the component union.
func (m *Maintainer) add(u, v int32) {
	m.link(u, v)
	m.union(u, v)
}

// link records an edge in the adjacency on both sides and in the
// checker's cached marking if it belongs to an endpoint (that list
// just grew).
func (m *Maintainer) link(u, v int32) {
	m.adj[u] = append(m.adj[u], v)
	m.adj[v] = append(m.adj[v], u)
	m.checker.linked(u, v)
	m.edges++
}

// RepairContext retests the deferred queue until a full pass admits
// nothing, returning the edges admitted in admission order. This is the
// fixpoint that closes the Theorem 2 maximality gap: after a repair that
// runs to the end, no deferred edge can be added to the maintained
// subgraph without breaking chordality. Cancellation is observed every
// few hundred retests, returning the edges admitted so far with
// ctx.Err(). Queue order is preserved across passes, so the admission
// sequence is deterministic for a given deferral order.
func (m *Maintainer) RepairContext(ctx context.Context) ([]graph.Edge, error) {
	var admitted []graph.Edge
	tested := 0
	for changed := true; changed; {
		changed = false
		rest := m.deferred[:0]
		for _, e := range m.deferred {
			if tested++; tested%256 == 0 && ctx.Err() != nil {
				rest = append(rest, e)
				continue
			}
			ok, _ := m.admit(e.U, e.V, false)
			if ok {
				delete(m.inDeferred, int64(e.U)<<32|int64(e.V))
				admitted = append(admitted, e)
				changed = true
			} else {
				rest = append(rest, e)
			}
		}
		m.deferred = rest
		if err := ctx.Err(); err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}

// find is union-find lookup with path halving.
func (m *Maintainer) find(v int32) int32 {
	for m.uf[v] != v {
		m.uf[v] = m.uf[m.uf[v]]
		v = m.uf[v]
	}
	return v
}

// union merges the components of u and v by size and reports whether
// they were apart.
func (m *Maintainer) union(u, v int32) bool {
	ru, rv := m.find(u), m.find(v)
	if ru == rv {
		return false
	}
	if m.ufSize[ru] < m.ufSize[rv] {
		ru, rv = rv, ru
	}
	m.uf[rv] = ru
	m.ufSize[ru] += m.ufSize[rv]
	return true
}
