package incremental

// SearchScanned returns the adjacency entries the separator searches of
// m's current Checker have read.
func (m *Maintainer) SearchScanned() int64 { return m.checker.scanned }
