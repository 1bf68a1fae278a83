// Quickstart walks Algorithm 1 step by step on a small graph, in the
// spirit of the paper's Figure 1: it prints every lowest-parent test,
// which edges join the chordal set and why, and verifies the result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"chordal"
)

func main() {
	// A small graph with one chordless 4-cycle (2-4-6-5-2), a triangle
	// (0-1-2) and a couple of tails — enough structure for at least one
	// edge to be rejected.
	b := chordal.NewBuilder(8)
	edges := [][2]int32{
		{0, 1}, {0, 2}, {1, 2}, // triangle
		{2, 4}, {2, 5}, {4, 6}, {5, 6}, // 4-cycle 2-4-6-5
		{3, 6}, // tail into the cycle
		{6, 7}, // pendant
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input graph: %s\n\n", chordal.ComputeStats(g))

	// Trace every subset test. One worker keeps the printout in
	// deterministic order.
	fmt.Println("extraction trace (parent -> child, subset test result):")
	res, err := chordal.Extract(g, chordal.Options{
		Workers: 1,
		OnEvent: func(iter int, parent, child int32, accepted bool) {
			verdict := "REJECT (child's chordal set not within parent's)"
			if accepted {
				verdict = "accept"
			}
			fmt.Printf("  iter %d: test edge (%d,%d): %s\n", iter, parent, child, verdict)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nchordal edge set EC (%d of %d edges):\n", res.NumChordalEdges(), g.NumEdges())
	for _, e := range res.Edges {
		fmt.Printf("  (%d,%d)\n", e.U, e.V)
	}
	fmt.Printf("\niterations: %d, queue sizes %v\n", len(res.Iterations), res.QueueSizes())

	sub := res.ToGraph()
	fmt.Printf("output is chordal: %v\n", chordal.IsChordal(sub))
	fmt.Printf("output is maximal: %v\n", chordal.IsMaximalChordal(g, sub))
	if !chordal.IsMaximalChordal(g, sub) {
		// This small graph exhibits the gap in the paper's Theorem 2
		// (see DESIGN.md §5): both 4-cycle closings were rejected, yet
		// after the rejections one of them no longer closes any cycle.
		// The repair pass re-admits safely addable edges.
		repaired, err := chordal.Extract(g, chordal.Options{RepairMaximality: true})
		if err != nil {
			log.Fatal(err)
		}
		rsub := repaired.ToGraph()
		fmt.Printf("after RepairMaximality: %d edges, maximal: %v\n",
			repaired.NumChordalEdges(), chordal.IsMaximalChordal(g, rsub))
	}

	// The subset test stores, for every vertex, its smaller chordal
	// neighbors — the C sets of the paper.
	fmt.Println("\nper-vertex chordal sets C[v]:")
	for v := int32(0); v < 8; v++ {
		fmt.Printf("  C[%d] = %v\n", v, res.ChordalNeighbors(v))
	}
}
