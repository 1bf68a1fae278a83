package graph

import "fmt"

// Stats summarizes the structural properties reported in Table I of the
// paper for each input graph.
type Stats struct {
	Vertices        int
	Edges           int64
	AvgDegree       float64
	MaxDegree       int
	DegreeVariance  float64
	EdgesByVertices float64
}

// ComputeStats returns the Table-I statistics of g.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{Vertices: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	sum := 0.0
	sumSq := 0.0
	for v := 0; v < n; v++ {
		d := float64(g.Degree(int32(v)))
		sum += d
		sumSq += d * d
		if int(d) > s.MaxDegree {
			s.MaxDegree = int(d)
		}
	}
	s.AvgDegree = sum / float64(n)
	s.DegreeVariance = sumSq/float64(n) - s.AvgDegree*s.AvgDegree
	s.EdgesByVertices = float64(s.Edges) / float64(n)
	return s
}

// String formats the stats as one Table-I style row.
func (s Stats) String() string {
	return fmt.Sprintf("V=%d E=%d avgDeg=%.2f maxDeg=%d var=%.1f E/V=%.2f",
		s.Vertices, s.Edges, s.AvgDegree, s.MaxDegree, s.DegreeVariance, s.EdgesByVertices)
}
