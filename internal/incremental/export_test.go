package incremental

import "context"

// SearchScanned returns the adjacency entries the separator searches of
// m's current Checker have read.
func (m *Maintainer) SearchScanned() int64 { return m.checker.scanned }

// SearchMarked returns the adjacency entries the intersections of m's
// current Checker have marked.
func (m *Maintainer) SearchMarked() int64 { return m.checker.marked }

// Intersection runs the intersection step of m's Checker on {u, v} and
// returns the members of N(u) it marked, in list order.
func (m *Maintainer) Intersection(u, v int32) []int32 {
	m.checker.intersect(m.adj, u, v)
	var common []int32
	for _, x := range m.adj[u] {
		if m.checker.sep.Contains(x) {
			common = append(common, x)
		}
	}
	return common
}

// ReconcileWork runs Reconcile and returns the adjacency entries the
// separator searches of its border and repair passes read and their
// intersections marked.
func ReconcileWork(ctx context.Context, n int, edges []Edge, input EdgeStream, p Passes) (scanned, marked int64, err error) {
	_, _, m, err := reconcile(ctx, n, edges, input, p)
	if m == nil {
		return 0, 0, err
	}
	return m.checker.scanned, m.checker.marked, err
}
