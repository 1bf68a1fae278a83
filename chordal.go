// Package chordal extracts maximal chordal subgraphs from large
// undirected graphs with a fine-grained multithreaded algorithm, a Go
// reproduction of "A Novel Multithreaded Algorithm for Extracting
// Maximal Chordal Subgraphs" (Halappanavar, Feo, Dempsey, Ali,
// Bhowmick; ICPP 2012).
//
// A chordal graph contains no induced cycle longer than a triangle.
// Many problems that are NP-hard in general — maximum clique, chromatic
// number, treewidth — are linear-time on chordal graphs, so extracting
// a large chordal subgraph is a practical preprocessing and sampling
// step; see the MaxClique, Coloring and Decompose helpers.
//
// # Quick start
//
//	src, _ := chordal.ParseSource("rmat-er:14:42")
//	g, _ := src.Load()
//	res, _ := chordal.Extract(g, chordal.Options{})
//	fmt.Println(res.NumChordalEdges(), "chordal edges in",
//		len(res.Iterations), "iterations")
//	sub := res.ToGraph()
//	fmt.Println("chordal:", chordal.IsChordal(sub))
//
// A graph comes from ParseSource, which names a file or a generator
// spec (SourceSpecs lists the families and their bounds), or from a
// Builder. Both refuse parameters outside their bounds with an error.
// The toolkit functions below (Extract, the chordality checks, the
// chordal-graph algorithms and the elimination orders) are thin
// wrappers over the internal packages.
//
// For whole runs (acquire → relabel → extract → verify → write), build
// a declarative Spec: it is versioned, JSON-round-trippable, selects
// its extraction Engine by registry name, exposes one canonical cache
// identity (Spec.Canonical), and reports progress through the unified
// Event stream. Spec.Run, or a Runner that injects an input graph or an
// Observer, is the one entry point; its PipelineResult embeds the
// engine's EngineResult. The paper's serial baseline is the dearing
// engine, which specs may also name "serial". The CLI tools and the
// HTTP extraction service execute the same Spec type, so identical
// parameters share one identity — and one cache entry — across all
// three surfaces.
package chordal

import (
	"context"
	"fmt"
	"math"

	"chordal/internal/chordalalg"
	"chordal/internal/core"
	"chordal/internal/elimination"
	"chordal/internal/graph"
	"chordal/internal/quality"
	"chordal/internal/verify"
)

// Graph is an immutable undirected graph in compressed sparse row form.
type Graph = graph.Graph

// Stats holds the Table-I structural statistics of a graph.
type Stats = graph.Stats

// Options configures Extract; the zero value uses automatic variant
// selection and GOMAXPROCS workers.
type Options = core.Options

// Result is the outcome of a parallel extraction, including the chordal
// edge set and per-iteration instrumentation.
type Result = core.Result

// Edge is an undirected chordal edge with U < V.
type Edge = core.Edge

// IterationStats describes one iteration of the extraction loop.
type IterationStats = core.IterationStats

// Variant selects the paper's optimized or unoptimized code path.
type Variant = core.Variant

// Extraction variants; see the core package for semantics.
const (
	VariantAuto        = core.VariantAuto
	VariantOptimized   = core.VariantOptimized
	VariantUnoptimized = core.VariantUnoptimized
)

// Schedule selects how subset tests are ordered relative to the growth
// of the chordal sets they read; see the core package for semantics.
type Schedule = core.Schedule

// Extraction schedules; see the core package for semantics.
const (
	ScheduleDataflow    = core.ScheduleDataflow
	ScheduleAsync       = core.ScheduleAsync
	ScheduleSynchronous = core.ScheduleSynchronous
)

// Builder accumulates the edges of a graph on a fixed vertex count.
// It records what it is given; Build checks it.
type Builder struct {
	n      int
	us, vs []int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge {u, v}. Build drops self loops
// and duplicates, and fails on an endpoint outside [0, n).
func (b *Builder) AddEdge(u, v int32) {
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
}

// Build returns the simple graph on the recorded edges, or the error
// BuildFromEdges reports for them.
func (b *Builder) Build() (*Graph, error) { return BuildFromEdges(b.n, b.us, b.vs) }

// BuildFromEdges constructs a simple undirected graph on n vertices
// from endpoint slices, dropping self loops and duplicates. It returns
// an error, naming the first offending edge, when n is negative or
// exceeds the int32 id space, when the slices differ in length, or when
// an endpoint lies outside [0, n).
func BuildFromEdges(n int, us, vs []int32) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("chordal: vertex count %d outside [0, %d]", n, math.MaxInt32)
	}
	if len(us) != len(vs) {
		return nil, fmt.Errorf("chordal: %d edge sources but %d edge targets", len(us), len(vs))
	}
	for i, u := range us {
		if v := vs[i]; u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("chordal: edge %d (%d, %d) has an endpoint outside [0, %d)", i, u, v, n)
		}
	}
	return graph.BuildFromEdges(n, us, vs), nil
}

// Extract runs the multithreaded maximal-chordal-subgraph algorithm on
// g with the given options.
func Extract(g *Graph, opts Options) (*Result, error) {
	return core.Extract(g, opts)
}

// IsChordal reports whether g is a chordal graph (via maximum
// cardinality search, O(V+E)).
func IsChordal(g *Graph) bool { return verify.IsChordal(g) }

// IsMaximalChordal reports whether sub is chordal and cannot absorb any
// further edge of g without breaking chordality. A sub whose vertex
// count differs from g's reports false. It costs one MCS pass and one
// clique-tree build over sub, O(V+E), plus O(log n · log ω + ω) per
// edge of g absent from sub, where ω is sub's largest clique.
func IsMaximalChordal(g, sub *Graph) bool { return verify.IsMaximalChordal(g, sub) }

// PerfectEliminationOrdering returns a PEO of the chordal graph g, or
// an error if g is not chordal.
func PerfectEliminationOrdering(g *Graph) ([]int32, error) { return chordalalg.PEO(g) }

// MaxClique returns a maximum clique of the chordal graph g — the
// NP-hard-on-general-graphs problem that motivates chordal extraction.
func MaxClique(g *Graph) ([]int32, error) { return chordalalg.MaxClique(g) }

// Coloring optimally colors the chordal graph g, returning per-vertex
// colors and the chromatic number.
func Coloring(g *Graph) ([]int32, int, error) { return chordalalg.Coloring(g) }

// Decompose returns the clique tree of the chordal graph g: a tree
// decomposition whose bags are exactly its maximal cliques.
func Decompose(g *Graph) (*chordalalg.TreeDecomposition, error) { return chordalalg.Decompose(g) }

// TreeDecomposition is the clique tree of a chordal graph: Bags holds
// its maximal cliques, Parent links each bag to a lower-numbered bag or
// -1 for a root, and Width is the treewidth.
type TreeDecomposition = chordalalg.TreeDecomposition

// ComputeStats returns the Table-I structural statistics of g.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// SaveGraph writes a graph to a file; the format follows the extension
// (.bin binary CSR, .mtx Matrix Market, otherwise edge list), and
// ParseSource reads the file back.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Quality scores an extracted chordal subgraph against its input:
// edge retention, fill-in under the subgraph's perfect elimination
// ordering, and the exact chordal-graph invariants (treewidth,
// chromatic number). Populated on PipelineResult.Quality and
// RunReport.Quality.
type Quality = quality.Metrics

// Fill counts the fill edges symbolic elimination creates on g under
// the given ordering; zero exactly when the ordering is a perfect
// elimination ordering of a chordal graph. The count is exact and runs
// in O(E·α(E, V)) time whatever the fill, from the elimination tree
// and the column counts of the Cholesky factor.
func Fill(g *Graph, order []int32) (int64, error) { return elimination.Fill(g, order) }

// MinDegreeOrder returns the greedy minimum-degree fill-reducing
// ordering of g.
func MinDegreeOrder(g *Graph) []int32 {
	order, _ := elimination.MinDegreeOrder(context.TODO(), g) // fails only on a canceled ctx
	return order
}

// ChordalGuidedOrder returns an elimination ordering of g that is a
// perfect elimination ordering of an extracted maximal chordal
// subgraph, confining all fill to the non-chordal remainder.
func ChordalGuidedOrder(g *Graph) ([]int32, error) {
	return elimination.ChordalGuidedOrder(g, core.Options{})
}
