package incremental

import (
	"context"

	"chordal/internal/graph"
)

// EdgeStream iterates every undirected input edge exactly once as
// (u, v) with u < v, in ascending-u, adjacency-position order — the
// order graph.Graph.Edges produces. Reconcile's decisions are a
// function of this order, so another input representation (extio's
// disk-backed CSR) must reproduce it exactly to decide the same. A
// stream may be consumed more than once and must replay identically.
// When fn returns false the stream stops reading its input and returns
// nil at once: a canceled pass does not decode the rest of a file.
type EdgeStream func(fn func(u, v int32) bool) error

// Passes selects the passes Reconcile runs, in field order.
type Passes struct {
	// Stitch admits every input edge whose endpoints lie in different
	// components: a bridge lies on no cycle, so no chordless cycle can
	// appear (the spanning form of the paper's remark below Theorem 2).
	Stitch bool
	// Border, when non-nil, reports whether an input edge crosses a
	// shard border; those edges and the stitched ones among them are
	// counted.
	Border func(u, v int32) bool
	// AdmitBorder admits, in stream order, each border edge the stitch
	// did not take that the exact separator criterion accepts.
	AdmitBorder bool
	// Repair offers every input edge to the criterion in stream order,
	// queueing each rejection, and retests the queue until a pass admits
	// nothing, so the result is maximal chordal (DESIGN.md §5).
	Repair bool
}

// Counts reports what Reconcile's passes counted and added.
type Counts struct {
	// Stitched counts the stitch's bridges, BorderBridges those of them
	// that cross a border, and BorderTotal every input edge that does.
	Stitched, BorderBridges, BorderTotal int
	// BorderAdmitted and Repaired count what AdmitBorder and Repair
	// added.
	BorderAdmitted, Repaired int
}

// Reconcile runs the selected passes over edges, a chordal edge set of
// an n-vertex graph whose input edges input streams, and returns edges
// with every admitted edge appended in admission order. The stitch
// needs only the union-find; the adjacency the later passes check
// against is built, from edges and then the stitched ones, only when
// one of them runs. Border edges are decided without queueing a
// rejection, because the repair scan queues its own. ctx is observed
// every 1024 streamed edges, every 256 border checks and by the
// retests; a canceled pass returns ctx.Err(), and an error from the
// stream is returned as is.
func Reconcile(ctx context.Context, n int, edges []graph.Edge, input EdgeStream, p Passes) ([]graph.Edge, Counts, error) {
	edges, c, _, err := reconcile(ctx, n, edges, input, p)
	return edges, c, err
}

// reconcile is Reconcile, also returning the Maintainer the border and
// repair passes checked with (nil when neither ran).
func reconcile(ctx context.Context, n int, edges []graph.Edge, input EdgeStream, p Passes) ([]graph.Edge, Counts, *Maintainer, error) {
	var c Counts
	m := components(n)
	for _, e := range edges {
		m.union(e.U, e.V)
	}
	var border []graph.Edge
	if p.Stitch || p.Border != nil {
		err := scan(ctx, input, func(u, v int32) {
			cross := p.Border != nil && p.Border(u, v)
			if cross {
				c.BorderTotal++
			}
			if p.Stitch && m.union(u, v) {
				edges = append(edges, graph.Edge{U: u, V: v})
				c.Stitched++
				if cross {
					c.BorderBridges++
				}
			} else if cross && p.AdmitBorder {
				border = append(border, graph.Edge{U: u, V: v})
			}
		})
		if err != nil {
			return edges, c, nil, err
		}
	}
	if len(border) == 0 && !p.Repair {
		return edges, c, nil, nil
	}

	// After the stitch every border candidate's endpoints are connected,
	// so a check is the intersection and, when it is not empty, the
	// search. The last marked list stays cached, and exact, across
	// admissions, so candidates of the ascending-u order that share a hub
	// probe only the other list (DESIGN.md §7).
	m.open(edges)
	for i, e := range border {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return edges, c, m, err
			}
		}
		if ok, _ := m.admit(e.U, e.V, false); ok {
			edges = append(edges, e)
			c.BorderAdmitted++
		}
	}
	if !p.Repair {
		return edges, c, m, nil
	}

	err := scan(ctx, input, func(u, v int32) {
		if ok, _ := m.Admit(u, v); ok {
			edges = append(edges, graph.Edge{U: u, V: v})
			c.Repaired++
		}
	})
	if err != nil {
		return edges, c, m, err
	}
	admitted, err := m.RepairContext(ctx)
	c.Repaired += len(admitted)
	return append(edges, admitted...), c, m, err
}

// scan streams input to fn, checking ctx every 1024 edges; once ctx is
// done it stops the stream and returns ctx.Err().
func scan(ctx context.Context, input EdgeStream, fn func(u, v int32)) error {
	var ctxErr error
	scanned := 0
	err := input(func(u, v int32) bool {
		if scanned++; scanned%1024 == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		fn(u, v)
		return true
	})
	if ctxErr != nil {
		return ctxErr
	}
	return err
}
