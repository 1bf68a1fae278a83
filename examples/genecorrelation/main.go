// Genecorrelation reproduces the paper's biological pipeline end to
// end: synthesize a gene-expression matrix, build the Pearson
// correlation network exactly as the paper describes (connect pairs
// with rho >= 0.95), extract its maximal chordal subgraph, and compare
// the structural properties the sampling literature cares about —
// this is the noise-reducing network sampling application of the
// paper's references [4] and [5].
//
// Run with:
//
//	go run ./examples/genecorrelation
package main

import (
	"fmt"
	"log"

	"chordal"
	"chordal/internal/analysis"
	"chordal/internal/biogen"
)

func main() {
	// 1. Synthetic microarray: 1200 genes, 120 samples, co-expression
	// modules of ~15 genes (stand-in for the GEO datasets, which are
	// not redistributable).
	const genes, samples, moduleSize = 1200, 60, 15
	fmt.Printf("synthesizing expression matrix: %d genes x %d samples\n", genes, samples)
	expr, modules := biogen.GenerateExpression(genes, samples, moduleSize, 7)
	numModules := 0
	for _, m := range modules {
		if m+1 > numModules {
			numModules = m + 1
		}
	}
	fmt.Printf("planted co-expression modules: %d\n\n", numModules)

	// 2. Correlation network at the paper's threshold.
	const rho = 0.95
	g := biogen.CorrelationNetwork(expr, rho)
	fmt.Printf("correlation network (rho >= %.2f): %s\n", rho, chordal.ComputeStats(g))
	fmt.Printf("mean clustering coefficient: %.3f\n", analysis.GlobalClusteringCoefficient(g))
	fmt.Printf("degree assortativity: %+.3f\n\n", analysis.DegreeAssortativity(g))

	// 3. Extract the maximal chordal subgraph (the sampling step). One
	// worker makes the iteration count a function of the input; the
	// edge set is the same at any width.
	res, err := chordal.Extract(g, chordal.Options{Workers: 1, StitchComponents: true})
	if err != nil {
		log.Fatal(err)
	}
	sub := res.ToGraph()
	fmt.Printf("maximal chordal subgraph: %d of %d edges (%.1f%%), %d iterations\n",
		res.NumChordalEdges(), g.NumEdges(),
		100*float64(res.NumChordalEdges())/float64(g.NumEdges()), len(res.Iterations))
	fmt.Printf("chordal: %v\n\n", chordal.IsChordal(sub))

	// 4. What did the sample preserve? Hub membership and module
	// reachability are the properties refs [4,5] track.
	origDeg := topK(g, 10)
	subDeg := topK(sub, 10)
	kept := 0
	for v := range origDeg {
		if subDeg[v] {
			kept++
		}
	}
	fmt.Printf("hub preservation: %d of 10 highest-degree genes stay in the sample's top 10\n", kept)

	_, gComps := analysis.Components(g)
	_, sComps := analysis.Components(sub)
	fmt.Printf("connected components: %d (network) vs %d (chordal sample with stitching)\n", gComps, sComps)

	// 5. The payoff: NP-hard analyses become tractable on the sample.
	clique, err := chordal.MaxClique(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("largest co-expression clique in the sample: %d genes %v...\n",
		len(clique), clique[:min(4, len(clique))])
}

// topK returns the k highest-degree vertices of g as a set.
func topK(g *chordal.Graph, k int) map[int32]bool {
	type dv struct {
		v int32
		d int
	}
	best := make([]dv, 0, k+1)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		d := g.Degree(v)
		best = append(best, dv{v, d})
		for i := len(best) - 1; i > 0 && best[i].d > best[i-1].d; i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make(map[int32]bool, k)
	for _, e := range best {
		out[e.v] = true
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
