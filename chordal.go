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
// step; see the Cliques, Coloring and Decompose helpers.
//
// # Quick start
//
//	g, _ := chordal.GenerateRMAT(chordal.RMATER, 14, 42)
//	res, _ := chordal.Extract(g, chordal.Options{})
//	fmt.Println(res.NumChordalEdges(), "chordal edges in",
//		len(res.Iterations), "iterations")
//	sub := res.ToGraph()
//	fmt.Println("chordal:", chordal.IsChordal(sub))
//
// The package is a thin, documented facade over the internal packages;
// everything needed for extraction, generation, verification and the
// downstream chordal-graph algorithms is re-exported here.
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

	"chordal/internal/analysis"
	"chordal/internal/biogen"
	"chordal/internal/chordalalg"
	"chordal/internal/core"
	"chordal/internal/dearing"
	"chordal/internal/elimination"
	"chordal/internal/graph"
	"chordal/internal/quality"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

// Graph is an immutable undirected graph in compressed sparse row form.
type Graph = graph.Graph

// Builder accumulates edges for Graph construction.
type Builder = graph.Builder

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

// RMATPreset selects one of the paper's three R-MAT parameterizations.
type RMATPreset = rmat.Preset

// The paper's synthetic graph families.
const (
	RMATER = rmat.ER // uniform: Erdős–Rényi-like
	RMATG  = rmat.G  // skewed: small-world with communities
	RMATB  = rmat.B  // heavily skewed: widest degree distribution
)

// BioDataset names the four gene-correlation networks modeled after the
// paper's GEO inputs.
type BioDataset = biogen.Dataset

// The paper's biological network suite.
const (
	GSE5140CRT  = biogen.GSE5140CRT
	GSE5140UNT  = biogen.GSE5140UNT
	GSE17072CTL = biogen.GSE17072CTL
	GSE17072NON = biogen.GSE17072NON
)

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// BuildFromEdges constructs a simple undirected graph from endpoint
// slices, dropping self loops and duplicates.
func BuildFromEdges(n int, us, vs []int32) *Graph {
	return graph.BuildFromEdges(n, us, vs)
}

// Extract runs the multithreaded maximal-chordal-subgraph algorithm on
// g with the given options.
func Extract(g *Graph, opts Options) (*Result, error) {
	return core.Extract(g, opts)
}

// ExtractContext is Extract under a cancellable context: cancellation
// is observed at iteration boundaries and returns ctx.Err() with no
// leaked worker goroutines.
func ExtractContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return core.ExtractContext(ctx, g, opts)
}

// ExtractSerial runs the serial baseline of Dearing, Shier and Warner
// starting from vertex 0 and returns the resulting chordal subgraph.
func ExtractSerial(g *Graph) *Graph {
	return dearing.Extract(g, 0).ToGraph(g.NumVertices())
}

// GenerateRMAT generates one of the paper's synthetic graph families at
// the given scale (2^scale vertices, 8·2^scale requested edges).
func GenerateRMAT(preset RMATPreset, scale int, seed uint64) (*Graph, error) {
	return rmat.Generate(rmat.PresetParams(preset, scale, seed))
}

// GenerateBio generates a synthetic gene-correlation network modeled
// after one of the paper's GEO datasets. downscale divides the gene
// count (1 reproduces the paper's network sizes).
func GenerateBio(dataset BioDataset, downscale int, seed uint64) (*Graph, error) {
	return biogen.Generate(biogen.PresetParams(dataset, downscale, seed))
}

// IsChordal reports whether g is a chordal graph (via maximum
// cardinality search, O(V+E)).
func IsChordal(g *Graph) bool { return verify.IsChordal(g) }

// IsMaximalChordal reports whether sub is chordal and cannot absorb any
// further edge of g without breaking chordality. It costs one MCS pass
// and one clique-tree build over sub, O(V+E), plus O(log n · log ω + ω)
// per edge of g absent from sub, where ω is sub's largest clique.
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

// Decompose returns a tree decomposition of the chordal graph g.
func Decompose(g *Graph) (*chordalalg.TreeDecomposition, error) { return chordalalg.Decompose(g) }

// TreeDecomposition is a clique-tree decomposition of a chordal graph.
type TreeDecomposition = chordalalg.TreeDecomposition

// ComputeStats returns the Table-I structural statistics of g.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// ClusteringByDegree returns the Figure-2 series: average clustering
// coefficient per vertex degree.
func ClusteringByDegree(g *Graph) []analysis.DegreeClusteringPoint {
	return analysis.ClusteringByDegree(g)
}

// DegreeClusteringPoint is one degree bucket of ClusteringByDegree.
type DegreeClusteringPoint = analysis.DegreeClusteringPoint

// ShortestPathHistogram returns the Figure-3 series: ordered-pair
// counts per shortest-path length; sources=0 runs every BFS root.
func ShortestPathHistogram(g *Graph, sources int) []int64 {
	return analysis.ShortestPathHistogram(g, sources)
}

// BFSRelabel renumbers g in breadth-first order from root. Running
// Extract on the relabeled graph of a connected input yields a
// connected chordal subgraph (remark below the paper's Theorem 2).
func BFSRelabel(g *Graph, root int32) *Graph {
	return g.Relabel(analysis.BFSOrder(g, root))
}

// LoadGraph reads a graph from a file; the format follows the
// extension (.bin binary CSR, .mtx Matrix Market, otherwise edge list).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph to a file; format selection as in LoadGraph.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// MaximumIndependentSet returns a maximum independent set of the
// chordal graph g (linear-time by the PEO greedy).
func MaximumIndependentSet(g *Graph) ([]int32, error) {
	return chordalalg.MaximumIndependentSet(g)
}

// CliqueCover partitions the chordal graph g into the minimum number
// of cliques.
func CliqueCover(g *Graph) ([][]int32, int, error) { return chordalalg.CliqueCover(g) }

// FindHole returns a chordless cycle of length >= 4 witnessing that g
// is not chordal, or nil when g is chordal.
func FindHole(g *Graph) []int32 {
	return verify.FindHole(verify.AdjFromGraph(g))
}

// DegreeRelabel renumbers g so the highest-degree vertices receive the
// smallest ids — a maximality heuristic for Extract on graphs whose
// hubs carry large ids (see DESIGN.md §5).
func DegreeRelabel(g *Graph) *Graph {
	return g.Relabel(analysis.DegreeOrder(g))
}

// GenerateGNM returns a uniform random simple graph with n vertices
// and m edges, part of the broader input set the paper's conclusion
// proposes.
func GenerateGNM(n int, m int64, seed uint64) *Graph { return synth.GNM(n, m, seed) }

// GenerateWattsStrogatz returns a small-world graph (ring lattice with
// 2k neighbors per vertex, rewiring probability beta).
func GenerateWattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	return synth.WattsStrogatz(n, k, beta, seed)
}

// GenerateGeometric returns a random geometric (mesh-like) graph with
// the given connection radius in the unit square.
func GenerateGeometric(n int, radius float64, seed uint64) *Graph {
	return synth.RandomGeometric(n, radius, seed)
}

// GenerateKTree returns a k-tree on n vertices — a maximal chordal
// graph of treewidth k, useful as ground truth for extraction quality.
func GenerateKTree(n, k int, seed uint64) *Graph { return synth.KTree(n, k, seed) }

// Quality scores an extracted chordal subgraph against its input:
// edge retention, fill-in under the subgraph's perfect elimination
// ordering, and the exact chordal-graph invariants (treewidth,
// chromatic number). Populated on PipelineResult.Quality and
// RunReport.Quality; compute directly with ComputeQuality.
type Quality = quality.Metrics

// QualityLimits bounds the optional metric groups of ComputeQuality:
// the chordal invariants can be skipped on large subgraphs. Retention
// and fill have no bound because their exact counts are near-linear.
type QualityLimits = quality.Limits

// DefaultQualityLimits returns the bounds the Runner applies to its
// always-on quality reporting.
func DefaultQualityLimits() QualityLimits { return quality.DefaultLimits() }

// ComputeQuality scores the chordal subgraph sub against its input
// graph g. sub must be chordal and share g's vertex set.
func ComputeQuality(g, sub *Graph, lim QualityLimits) (*Quality, error) {
	return quality.Compute(g, sub, lim)
}

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
