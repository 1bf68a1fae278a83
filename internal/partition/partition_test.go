package partition

import (
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/dearing"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/verify"
	"chordal/internal/xrand"
)

func randomGraph(n, m int, seed uint64) *graph.Graph {
	rng := xrand.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestSinglePartitionMatchesSerial(t *testing.T) {
	g := randomGraph(100, 400, 1)
	p := Extract(g, 1)
	d := dearing.Extract(g, 0)
	if p.InteriorEdges != d.NumChordalEdges() {
		t.Fatalf("1-part interior %d != serial %d", p.InteriorEdges, d.NumChordalEdges())
	}
	if p.BorderTotal != 0 {
		t.Fatalf("1 partition has %d border edges", p.BorderTotal)
	}
	if !p.Chordal {
		t.Fatal("single-partition result must be chordal")
	}
}

func TestInteriorsAreChordal(t *testing.T) {
	// With the border pass skipped conceptually (check interiors only),
	// per-partition outputs must each be chordal; the combined interior
	// set is a disjoint union, hence chordal.
	g := randomGraph(200, 1000, 2)
	p := Extract(g, 4)
	interior := make([]graph.Edge, 0, p.InteriorEdges)
	interior = append(interior, p.Edges[:0:0]...)
	for _, e := range p.Edges {
		interior = append(interior, e)
	}
	// Reconstruct interior-only subgraph: drop admitted border edges by
	// re-running with the count.
	_ = interior
	sub := graph.FromSortedEdges(200, p.Edges)
	if p.BorderAdmitted == 0 && !verify.IsChordal(sub) {
		t.Fatal("no border edges admitted yet result not chordal")
	}
}

func TestBorderCounts(t *testing.T) {
	g := randomGraph(300, 1500, 3)
	p := Extract(g, 8)
	if p.Parts != 8 {
		t.Fatalf("Parts = %d", p.Parts)
	}
	if p.BorderAdmitted > p.BorderTotal {
		t.Fatal("admitted more border edges than exist")
	}
	if len(p.Edges) != p.InteriorEdges+p.BorderAdmitted {
		t.Fatalf("edge accounting: %d != %d + %d", len(p.Edges), p.InteriorEdges, p.BorderAdmitted)
	}
	// Every border edge crosses partitions; every interior edge does
	// not need checking here, but all edges must exist in g.
	for _, e := range p.Edges {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v not in input", e)
		}
	}
}

func TestNearChordalityReported(t *testing.T) {
	// On structured inputs the combined result is usually NOT chordal
	// (the paper's motivation for the new algorithm); the field must
	// reflect an actual verification.
	g, err := rmat.Generate(rmat.PresetParams(rmat.B, 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := Extract(g, 6)
	want := verify.IsChordal(graph.FromSortedEdges(g.NumVertices(), p.Edges))
	if p.Chordal != want {
		t.Fatalf("Chordal = %v, verification says %v", p.Chordal, want)
	}
}

func TestPartsClamping(t *testing.T) {
	g := randomGraph(10, 30, 5)
	p := Extract(g, 0) // clamped to 1
	if p.Parts != 1 {
		t.Fatalf("Parts = %d, want 1", p.Parts)
	}
	p = Extract(g, 100) // clamped to n
	if p.Parts != 10 {
		t.Fatalf("Parts = %d, want 10", p.Parts)
	}
}

func TestTriangleRule(t *testing.T) {
	// Two partitions: {0,1} and {2,3}. Interior edges: 0-1 and 2-3.
	// Border edges 1-2, 0-2: 0-2 closes a triangle with 0-1 and 1-2
	// only if 1-2 is chordal first; construct so one border edge forms
	// a triangle with interior chordal edges and is admitted.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // interior part 0
	b.AddEdge(2, 3) // interior part 1
	b.AddEdge(1, 2) // border, no common neighbor with chordal edges on both sides
	g := b.Build()
	p := Extract(g, 2)
	if p.InteriorEdges != 2 {
		t.Fatalf("interior %d", p.InteriorEdges)
	}
	// 1-2: common neighbors of 1 and 2 in g: none. Not admitted.
	if p.BorderAdmitted != 0 {
		t.Fatalf("admitted %d border edges, want 0", p.BorderAdmitted)
	}

	// Add vertex 1-3 edge so border edge 1-3?? Instead: make triangle
	// 1-2 with common neighbor: add 1-3 and keep 2-3: then border edge
	// 1-2 has common neighbor 3 with edges 1-3 (border) and 2-3
	// (interior chordal). 1-3 is itself a border edge; admission
	// requires both incident edges already chordal, so order matters —
	// construct the clean case: common neighbor inside one partition.
	b2 := graph.NewBuilder(4)
	b2.AddEdge(0, 1) // interior part 0 {0,1}
	b2.AddEdge(0, 2) // border
	b2.AddEdge(1, 2) // border... need common neighbor with chordal edges
	g2 := b2.Build()
	p2 := Extract(g2, 2)
	// Common neighbor of 0 and 2: vertex 1 with edges 0-1 (interior
	// chordal) and 1-2 (border, admitted iff processed first). The
	// deterministic edge order processes 0-2 before 1-2; 0-2 needs 1-2
	// chordal, not yet admitted -> rejected; then 1-2 needs 0-2 -> also
	// rejected? 1-2's common neighbor with chordal edges: 0 with 0-1
	// chordal and 0-2 not chordal -> rejected. So 1 of 3 edges lost.
	if p2.BorderAdmitted != 0 {
		t.Fatalf("admitted %d, want 0 under deterministic order", p2.BorderAdmitted)
	}
	if !p2.Chordal {
		t.Fatal("result should be chordal (a path)")
	}
}

func TestMoreParts(t *testing.T) {
	// Smoke over several partition counts: accounting consistent,
	// result materializable.
	g := randomGraph(500, 2500, 7)
	for _, parts := range []int{2, 3, 5, 16} {
		p := Extract(g, parts)
		if len(p.Edges) == 0 {
			t.Fatalf("parts=%d extracted nothing", parts)
		}
		if err := graph.FromSortedEdges(500, p.Edges).Validate(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
	}
}

// TestPartOfInvertsBounds checks by brute force that PartOf puts every
// vertex of Bounds(n, parts, p) in part p, and that the slices tile
// [0, n), for every n up to 300 and every part count up to
// min(n, 17). When PartOf was ⌊v·parts/n⌋, n = 10 at 4 parts put
// vertex 2, in part 1's slice [2, 5), in part 0.
func TestPartOfInvertsBounds(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for parts := 1; parts <= min(n, 17); parts++ {
			partOf := PartOf(n, parts)
			next := int32(0)
			for p := 0; p < parts; p++ {
				lo, hi := Bounds(n, parts, p)
				if lo != next || hi < lo {
					t.Fatalf("n=%d parts=%d: part %d is [%d, %d), want it to start at %d", n, parts, p, lo, hi, next)
				}
				for v := lo; v < hi; v++ {
					if got := partOf(v); got != p {
						t.Fatalf("n=%d parts=%d: PartOf(%d) = %d, but Bounds puts it in part %d", n, parts, v, got, p)
					}
				}
				next = hi
			}
			if next != int32(n) {
				t.Fatalf("n=%d parts=%d: the slices end at %d", n, parts, next)
			}
		}
	}
}

// TestUnevenPartsCountEachEdgeOnce: at part counts that do not divide
// the vertex count, the border pass offers only edges that cross the
// Bounds slices, so no interior edge comes back as a border admission.
// The result repeats no edge, and its interior and border counts add
// up to its size, before and after the cleanup. While PartOf disagreed
// with Bounds, gse5140-crt:16:3 at 4 parts read 4 467 interior edges
// plus 19 border admissions for 4 467 edges.
func TestUnevenPartsCountEachEdgeOnce(t *testing.T) {
	bio, err := biogen.Generate(biogen.PresetParams(biogen.GSE5140CRT, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g     *graph.Graph
		parts int
	}{{bio, 4}, {bio, 7}, {randomGraph(301, 1500, 4), 4}} {
		n := c.g.NumVertices()
		if n%c.parts == 0 {
			t.Fatalf("%d parts divide %d vertices", c.parts, n)
		}
		p := Extract(c.g, c.parts)
		for i := 1; i < len(p.Edges); i++ {
			if a, b := p.Edges[i-1], p.Edges[i]; a.U > b.U || a.U == b.U && a.V >= b.V {
				t.Fatalf("n=%d parts=%d: edges %v then %v repeat or are out of order", n, c.parts, a, b)
			}
		}
		if p.InteriorEdges+p.BorderAdmitted != len(p.Edges) {
			t.Fatalf("n=%d parts=%d: %d interior + %d border admitted, but %d edges",
				n, c.parts, p.InteriorEdges, p.BorderAdmitted, len(p.Edges))
		}
		admitted := p.BorderAdmitted
		rep := p.Cleanup(n, PartOf(n, c.parts), 0)
		if p.InteriorEdges+admitted-rep.Removed != len(p.Edges) {
			t.Fatalf("n=%d parts=%d: %d interior + %d border admitted - %d removed, but %d edges after cleanup",
				n, c.parts, p.InteriorEdges, admitted, rep.Removed, len(p.Edges))
		}
	}
}
