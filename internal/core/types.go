// Package core implements the paper's contribution: the iterative
// multithreaded algorithm (Algorithm 1) that extracts a maximal chordal
// subgraph from a general undirected graph.
//
// # Algorithm
//
// Every vertex v tracks its lowest parent LP[v] — the smallest-id
// neighbor below v — and an id-ordered set of chordal neighbors C[v]
// (the smaller endpoints of its accepted chordal edges). Iterations are
// barrier-synchronized. In each iteration, every queued parent v scans
// its neighbors w; for those with LP[w] == v it tests the subset
// condition C[w] ⊆ C[v] by a merge scan of the two sorted sets, linear
// in |C[v]| as in the paper. If the condition holds, edge (v,w) joins the
// chordal edge set and v joins C[w]. Whether or not it holds, w advances
// to its next lowest parent, which is enqueued for the next iteration.
// The loop ends when the queue empties. The chordal edge list is read
// off the final sets in (U, V) order by a counting sort.
//
// At one worker, the default configuration (dataflow schedule, Opt,
// ascending queue) runs the same tests as one ascending sweep over the
// parents instead, and rebuilds the iterations' statistics from
// per-vertex activation times (sweep.go, DESIGN.md §3). Every other
// configuration runs the iterations above.
//
// # Schedules and concurrency
//
// LP[w] is unique, so each vertex has exactly one writer at a time.
// C[w] is an append-only array published with an atomic length store
// (the paper's "store the set of chordal neighbors as an atomic
// process"); concurrent readers of a parent's C[v] observe a consistent
// prefix. Under the Opt variant, C[w]'s region (one slot per smaller
// neighbor) starts out holding w's sorted smaller neighbors, its
// candidate parents, and the next lowest parent is read from there.
// Overwriting is safe: when w tests candidate k it has accepted at most
// k parents, so the accepted parent lands in a slot at or below k, over
// a candidate already consumed, and only w's owner reads past the
// published length. The Schedule option decides which prefix a test
// reads:
//
//   - Dataflow, the default, tests (v, w) only once C[v] is final. The
//     frontier hands a queued parent to the kernel only after it is
//     marked ready, which happens when its own lowest parents run out;
//     a waiting parent keeps its place in the queue. A child chains
//     through further final parents within one iteration. The edge set
//     does not depend on thread timing.
//   - Async reads whatever prefix is published, matching the paper's
//     pseudocode on the XMT; its output can depend on thread timing.
//   - Synchronous snapshots every set length at each barrier, so vertex
//     w tests its k-th lowest parent in iteration k; its output does
//     not depend on thread timing either.
package core

import (
	"fmt"
	"time"

	"chordal/internal/graph"
)

// Variant selects the paper's two implementations.
type Variant int

const (
	// VariantAuto picks Optimized when the input adjacency is sorted
	// and Unoptimized otherwise.
	VariantAuto Variant = iota
	// VariantOptimized is the paper's "Opt" code path: adjacency lists
	// are sorted, so the next lowest parent is found by bumping a
	// cursor. If the input graph is unsorted a sorted copy is made
	// (the paper likewise excludes sorting time from Opt timings).
	VariantOptimized
	// VariantUnoptimized is the paper's "Unopt" code path: adjacency
	// order is arbitrary and every next-lowest-parent step rescans the
	// full neighbor list.
	VariantUnoptimized
)

// String returns the paper's abbreviation for the variant.
func (v Variant) String() string {
	switch v {
	case VariantAuto:
		return "Auto"
	case VariantOptimized:
		return "Opt"
	case VariantUnoptimized:
		return "Unopt"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Schedule selects how subset tests are ordered relative to the growth
// of the chordal sets they read. All three schedules produce a chordal
// subgraph (Theorem 1 holds for any interleaving); they differ in
// iteration count, determinism, and whether the maximality argument of
// Theorem 2 applies. See DESIGN.md §5.
type Schedule int

const (
	// ScheduleDataflow is the default and models the paper's actual
	// implementation ("we use the data flow approach to restrict the
	// pattern in which the vertices are selected"): an edge (v,w) is
	// tested only once v's chordal set is final (v has exhausted its
	// own lowest parents), and a vertex chains through as many
	// finalized parents as possible within one iteration. This is the
	// semantics under which the paper's Theorem 2 proof is sound; it
	// yields a schedule-independent edge set. The iteration count is
	// not independent: at two or more workers it depends on thread
	// timing. At one worker it is a function of the input, and
	// `benchrunner -exp pct` (scales 14-16, bio
	// downscale 8) counts 8 iterations for RMAT-ER, 12-15 for RMAT-G,
	// 15-21 for RMAT-B and 11-16 for the four gene networks.
	ScheduleDataflow Schedule = iota
	// ScheduleAsync follows the pseudocode of Algorithm 1 literally:
	// a queued parent tests its children against whatever chordal-set
	// prefix is currently published. Output depends on thread timing
	// and can miss a small number of addable edges (the Theorem 2 gap);
	// provided for fidelity comparisons.
	ScheduleAsync
	// ScheduleSynchronous is the strict barrier schedule the paper's
	// complexity analysis assumes: every vertex tests exactly its k-th
	// lowest parent in iteration k, with chordal-set lengths
	// snapshotted at each barrier. Deterministic, but needs up to
	// max-smaller-degree iterations.
	ScheduleSynchronous
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleDataflow:
		return "Dataflow"
	case ScheduleAsync:
		return "Async"
	case ScheduleSynchronous:
		return "Synchronous"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// Options configures Extract. The zero value is ready to use: automatic
// variant selection, GOMAXPROCS workers, dataflow schedule. The kernel
// has one fixed configuration beyond these: the subset test is always
// the merge scan, and the parallel loop's chunk size is Grain.
type Options struct {
	// Variant selects the Opt/Unopt code path; see Variant.
	Variant Variant
	// Workers bounds worker goroutines; <= 0 means GOMAXPROCS.
	Workers int
	// Schedule selects the test-ordering discipline; see Schedule.
	Schedule Schedule
	// UnsortedQueue visits each iteration's queue in arrival order
	// instead of ascending vertex order. The default queue is a bitmap
	// that is visited in ascending order at no cost, and a dataflow
	// parent whose chordal set is not final keeps its bit without being
	// visited: a word AND with a ready bitmap skips it. Successive
	// lowest parents have increasing ids, so that order lets dataflow
	// chains ride a finalization wave through most of the graph in very
	// few iterations. Set this to model a machine (like the XMT) whose
	// queue order is arbitrary, at the cost of more iterations: the
	// queue becomes a list of per-worker arrival buffers, and a waiting
	// parent is pushed again behind the arrivals before it.
	UnsortedQueue bool
	// RepairMaximality runs a post-pass that offers every absent input
	// edge to the exact separator criterion and retests the rejected
	// ones until none can be added, so the result is maximal chordal.
	// See DESIGN.md §5 for why Algorithm 1 alone can leave such edges
	// behind.
	RepairMaximality bool
	// StitchComponents adds one original-graph edge between distinct
	// components of the extracted subgraph whenever one exists (a
	// cycle-free spanning stitch), the generalization of the
	// component-combining remark below Theorem 2. With both post-passes
	// on, the stitch runs first.
	StitchComponents bool
	// OnEvent, when non-nil, receives every subset test: parent v,
	// child w, and whether edge (v,w) was accepted. It is invoked
	// concurrently unless Workers == 1. At one worker under the default
	// configuration the calls come by iteration, then by the queued
	// parent whose visit ran the test, then child, then parent: the
	// sweep buffers the tests and replays them in that order when it
	// ends. Intended for demonstrations and tests; it slows extraction.
	OnEvent func(iteration int, parent, child int32, accepted bool)
	// OnIteration, when non-nil, receives each iteration's statistics,
	// once per iteration and in order. It is called from the extraction
	// goroutine (never concurrently with itself), so it is the cheap
	// hook for progress reporting — the service layer streams these as
	// server-sent events. At two or more workers, and under the
	// ablations, each call follows its iteration's barrier. The
	// one-worker sweep makes every call after the sweep ends, each after
	// its iteration's OnEvent calls, with a Duration of 0.
	OnIteration func(IterationStats)
}

// Edge is an undirected chordal edge; by construction U < V and U was
// the lowest parent that admitted the edge. It is graph.Edge, the one
// edge type, so kernel, repair, stream and engine edges share it.
type Edge = graph.Edge

// IterationStats records one while-loop iteration of Algorithm 1,
// the quantities behind Figure 7 of the paper.
type IterationStats struct {
	// Index is the 1-based iteration number.
	Index int
	// QueueSize is |Q1|, the number of lowest parents queued at the
	// start of the iteration: those processed and, under the dataflow
	// schedule, those still waiting for their chordal sets to become
	// final.
	QueueSize int
	// EdgesTested counts subset-condition evaluations (one per vertex
	// whose LP was in the queue).
	EdgesTested int64
	// EdgesAccepted counts edges admitted to the chordal set.
	EdgesAccepted int64
	// ScanWork is the total adjacency length scanned, the per-iteration
	// work measure consumed by the machine models.
	ScanWork int64
	// Duration is the wall-clock time of the iteration. It is 0 when
	// the one-worker sweep ran the extraction: the sweep has no
	// per-iteration wall time, though its counts are exact.
	Duration time.Duration
}

// Result holds the extracted maximal chordal edge set and the
// instrumentation the experiments consume.
type Result struct {
	// NumVertices is the vertex count of the input graph.
	NumVertices int
	// Edges is the chordal edge set EC.
	Edges []Edge
	// Iterations has one entry per while-loop iteration.
	Iterations []IterationStats
	// Variant is the code path actually used.
	Variant Variant
	// Schedule is the test-ordering discipline used.
	Schedule Schedule
	// Total is the wall-clock extraction time (excluding any sorting,
	// as in the paper's reported Opt numbers).
	Total time.Duration
	// RepairedEdges counts edges added by the RepairMaximality pass.
	RepairedEdges int
	// StitchedEdges counts edges added by the StitchComponents pass.
	StitchedEdges int

	csetOff  []int64
	csetData []int32
	csetLen  []int32
}

// NumChordalEdges returns |EC|.
func (r *Result) NumChordalEdges() int { return len(r.Edges) }

// ChordalNeighbors returns the smaller-id chordal neighbors of v in
// ascending order. The slice aliases internal storage; do not modify.
func (r *Result) ChordalNeighbors(v int32) []int32 {
	off := r.csetOff[v]
	return r.csetData[off : off+int64(r.csetLen[v])]
}

// HasChordalEdge reports whether {u, v} is in the extracted edge set.
func (r *Result) HasChordalEdge(u, v int32) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	set := r.ChordalNeighbors(v)
	lo, hi := 0, len(set)
	for lo < hi {
		mid := (lo + hi) / 2
		if set[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == u
}

// collectEdges lists the edges of the chordal sets in (U, V) order by a
// counting sort: count each parent's children, turn the counts into
// run starts, then scatter with the child ascending, so each parent's
// run comes out ascending too.
func (r *Result) collectEdges() []Edge {
	n := r.NumVertices
	start := make([]int, n+1)
	for w := int32(0); int(w) < n; w++ {
		for _, u := range r.ChordalNeighbors(w) {
			start[u+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	edges := make([]Edge, start[n])
	for w := int32(0); int(w) < n; w++ {
		for _, u := range r.ChordalNeighbors(w) {
			edges[start[u]] = Edge{U: u, V: w}
			start[u]++
		}
	}
	return edges
}

// ToGraph materializes the chordal edge set as a CSR graph over the
// same vertex ids; see graph.FromSortedEdges.
func (r *Result) ToGraph() *graph.Graph { return graph.FromSortedEdges(r.NumVertices, r.Edges) }

// TotalTested returns the number of subset tests over all iterations.
func (r *Result) TotalTested() int64 {
	var t int64
	for _, it := range r.Iterations {
		t += it.EdgesTested
	}
	return t
}

// TotalAccepted returns the number of accepted edges over all
// iterations (excluding repair and stitch additions).
func (r *Result) TotalAccepted() int64 {
	var t int64
	for _, it := range r.Iterations {
		t += it.EdgesAccepted
	}
	return t
}

// QueueSizes returns |Q1| per iteration, the series plotted in Figure 7.
func (r *Result) QueueSizes() []int {
	out := make([]int, len(r.Iterations))
	for i, it := range r.Iterations {
		out[i] = it.QueueSize
	}
	return out
}
