package core

import (
	"context"
	"sort"

	"chordal/internal/graph"
	"chordal/internal/incremental"
)

// repairMaximality re-examines every rejected edge against the final
// extracted subgraph and admits those whose insertion keeps it chordal,
// repeating until a pass admits nothing. Algorithm 1 can leave such
// edges behind: the paper's Theorem 2 argues that a rejected edge
// would close a cycle longer than a triangle, but a long cycle only
// violates chordality when it is chordless, and on graphs with multiple
// internally-connected regions the surrounding chords can exist (the
// serial baseline avoids this by always selecting the vertex with the
// largest candidate set, a global greedy choice the parallel algorithm
// gives up). Admission is delegated to incremental.Maintainer — the
// repository's one implementation of the dynamic-chordal-graph
// separator criterion — seeded with the kernel's edge set: one scan of
// the input defers every inadmissible absent edge, and RepairContext
// retests the deferred queue to the fixpoint. ctx is observed every
// 1024 scanned edges and by the retests; a canceled repair returns
// ctx.Err() and leaves res partly repaired, for the caller to drop.
func repairMaximality(ctx context.Context, g *graph.Graph, res *Result) error {
	m := incremental.New(g.NumVertices())
	for _, e := range res.Edges {
		m.Seed(e.U, e.V)
	}
	var err error
	scanned := 0
	g.Edges(func(u, v int32) {
		if err != nil {
			return
		}
		if scanned++; scanned%1024 == 0 {
			if err = ctx.Err(); err != nil {
				return
			}
		}
		if res.HasChordalEdge(u, v) {
			return
		}
		if ok, _ := m.Admit(u, v); ok {
			res.addChordalEdge(u, v)
			res.RepairedEdges++
		}
	})
	if err != nil {
		return err
	}
	admitted, err := m.RepairContext(ctx)
	if err != nil {
		return err
	}
	for _, e := range admitted {
		res.addChordalEdge(e.U, e.V)
		res.RepairedEdges++
	}
	if res.RepairedEdges > 0 {
		SortEdges(res.NumVertices, res.Edges)
	}
	return nil
}

// addChordalEdge inserts u (u < v) into v's chordal set in place and
// appends the edge. The per-vertex region was sized for every smaller
// neighbor, so capacity is always sufficient.
func (r *Result) addChordalEdge(u, v int32) {
	off := r.csetOff[v]
	n := int(r.csetLen[v])
	set := r.csetData[off : off+int64(n)+1]
	i := sort.Search(n, func(i int) bool { return set[i] >= u })
	copy(set[i+1:n+1], set[i:n])
	set[i] = u
	r.csetLen[v]++
	r.Edges = append(r.Edges, Edge{U: u, V: v})
}
