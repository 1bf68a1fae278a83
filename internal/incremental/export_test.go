package incremental

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
