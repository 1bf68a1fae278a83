// Ordering demonstrates the sparse-factorization application of
// chordal subgraph extraction: an elimination ordering that is a
// perfect elimination ordering of a large extracted chordal subgraph
// confines all fill to the non-chordal remainder, competing with the
// classic minimum-degree heuristic.
//
// Run with:
//
//	go run ./examples/ordering
package main

import (
	"fmt"
	"log"

	"chordal"
)

func main() {
	instances := []struct {
		name string
		g    *chordal.Graph
	}{
		{"k-tree(1000,3) + 500 noise edges", noisyKTree()},
		{"random geometric, avg degree 8", load("geo:1500:0.041:7")},
		{"RMAT-G scale 10", load("rmat-g:10:7")},
	}
	for _, inst := range instances {
		fmt.Printf("== %s: %s ==\n", inst.name, chordal.ComputeStats(inst.g))
		n := inst.g.NumVertices()

		natural := make([]int32, n)
		for i := range natural {
			natural[i] = int32(i)
		}
		fNat, err := chordal.Fill(inst.g, natural)
		if err != nil {
			log.Fatal(err)
		}
		fMD, err := chordal.Fill(inst.g, chordal.MinDegreeOrder(inst.g))
		if err != nil {
			log.Fatal(err)
		}
		guided, err := chordal.ChordalGuidedOrder(inst.g)
		if err != nil {
			log.Fatal(err)
		}
		fCh, err := chordal.Fill(inst.g, guided)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  fill: natural %8d | min-degree %8d | chordal-guided %8d\n\n", fNat, fMD, fCh)
	}
	fmt.Println("zero fill is possible exactly when the graph is chordal; the")
	fmt.Println("chordal-guided order pays fill only for edges the extractor rejected.")
}

func noisyKTree() *chordal.Graph {
	// A treewidth-3 backbone plus noise: the planted chordal part is a
	// best case for the guided ordering.
	base := load("ktree:1000:3:42")
	us, vs := base.EdgeList()
	// Add 500 pseudo-random extra edges.
	state := uint64(99)
	next := func(n int) int32 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int32(state % uint64(n))
	}
	added := 0
	for added < 500 {
		u, v := next(1000), next(1000)
		if u == v || base.HasEdge(u, v) {
			continue
		}
		us = append(us, u)
		vs = append(vs, v)
		added++
	}
	g, err := chordal.BuildFromEdges(1000, us, vs)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// load acquires the graph a source spec names (see chordal.SourceSpecs).
func load(spec string) *chordal.Graph {
	src, err := chordal.ParseSource(spec)
	if err != nil {
		log.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		log.Fatal(err)
	}
	return g
}
