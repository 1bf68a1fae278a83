// Cliques demonstrates the paper's motivating application: problems
// that are NP-hard on general graphs — maximum clique, chromatic
// number, treewidth — become linear-time once a chordal subgraph is
// extracted, giving fast lower bounds and orderings for the original
// graph.
//
// Run with:
//
//	go run ./examples/cliques
package main

import (
	"fmt"
	"log"

	"chordal"
)

func main() {
	// A scale-12 RMAT-B graph: skewed degrees, dense local communities.
	src, err := chordal.ParseSource("rmat-b:12:2012")
	if err != nil {
		log.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %s\n", chordal.ComputeStats(g))
	fmt.Println("maximum clique / chromatic number are NP-hard here...")

	res, err := chordal.Extract(g, chordal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sub := res.ToGraph()
	fmt.Printf("\nextracted maximal chordal subgraph: %d edges in %s (%d iterations)\n",
		res.NumChordalEdges(), res.Total, len(res.Iterations))

	// ...but linear-time on the chordal subgraph.
	clique, err := chordal.MaxClique(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmaximum clique of the subgraph: %d vertices %v\n", len(clique), clique)
	// Any clique of a subgraph is a clique of the original: verify and
	// report it as a lower bound.
	for i := 0; i < len(clique); i++ {
		for j := i + 1; j < len(clique); j++ {
			if !g.HasEdge(clique[i], clique[j]) {
				log.Fatal("clique not present in original graph?!")
			}
		}
	}
	fmt.Printf("=> the original graph's clique number is at least %d\n", len(clique))

	colors, k, err := chordal.Coloring(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimal coloring of the subgraph: %d colors (= its clique number)\n", k)
	conflicts := 0
	sub.Edges(func(u, v int32) {
		if colors[u] == colors[v] {
			conflicts++
		}
	})
	fmt.Printf("coloring conflicts on subgraph edges: %d\n", conflicts)

	td, err := chordal.Decompose(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntree decomposition: width %d, %d bags\n", td.Width, len(td.Bags))
	fmt.Println("(a chordal subgraph's clique tree seeds elimination orderings for")
	fmt.Println(" sparse factorization preconditioners on the full graph)")

	// A PEO of the subgraph is a useful elimination order for the
	// original matrix.
	peo, err := chordal.PerfectEliminationOrdering(sub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperfect elimination ordering computed (first 8: %v)\n", peo[:8])
}
