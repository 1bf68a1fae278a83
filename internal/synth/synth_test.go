package synth

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"chordal/internal/analysis"
	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/verify"
)

// must returns a generator's graph and panics on its error: every
// call in these tests names parameters inside the generator's bounds.
func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestGNMExactCounts(t *testing.T) {
	for _, m := range []int64{0, 1, 50, 300} {
		g := must(GNM(100, m, 7))
		if g.NumEdges() != m {
			t.Fatalf("m=%d: got %d edges", m, g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGNMRejectsOverfull(t *testing.T) {
	if g, err := GNM(4, 7, 1); err == nil || g != nil {
		t.Fatalf("GNM(4, 7) = %v, %v; want CheckGNM's error", g, err)
	}
}

func TestGNMComplete(t *testing.T) {
	g := must(GNM(5, 10, 3))
	if g.NumEdges() != 10 || g.MaxDegree() != 4 {
		t.Fatal("K5 not produced at m = max")
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: pure ring lattice, degree exactly 2k, clustering high.
	g := must(WattsStrogatz(100, 3, 0, 1))
	for v := int32(0); v < 100; v++ {
		if g.Degree(v) != 6 {
			t.Fatalf("lattice degree %d at %d", g.Degree(v), v)
		}
	}
	if cc := analysis.GlobalClusteringCoefficient(g); cc < 0.5 {
		t.Fatalf("lattice clustering %.3f", cc)
	}
}

func TestWattsStrogatzRewiring(t *testing.T) {
	lattice := must(WattsStrogatz(200, 3, 0, 2))
	rewired := must(WattsStrogatz(200, 3, 0.3, 2))
	// Rewiring shortens paths.
	hl := analysis.ShortestPathHistogram(lattice, 50)
	hr := analysis.ShortestPathHistogram(rewired, 50)
	if len(hr) >= len(hl) {
		t.Fatalf("rewiring did not shorten diameter: %d vs %d", len(hr), len(hl))
	}
	if err := rewired.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWattsStrogatzRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		n, k int
		beta float64
	}{{10, 0, 0.1}, {10, 5, 0.1}, {10, 2, 1.5}} {
		if g, err := WattsStrogatz(c.n, c.k, c.beta, 1); err == nil || g != nil {
			t.Errorf("WattsStrogatz(%d, %d, %v) = %v, %v; want CheckWattsStrogatz's error", c.n, c.k, c.beta, g, err)
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	n := 2000
	r := GeometricRadiusForDegree(n, 8)
	g := must(RandomGeometric(n, r, 5))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := 2 * float64(g.NumEdges()) / float64(n)
	if math.Abs(avg-8) > 2.5 {
		t.Fatalf("average degree %.2f, want ~8", avg)
	}
	// Geometric graphs are highly clustered compared to GNM of the
	// same density.
	gnm := must(GNM(n, g.NumEdges(), 5))
	if analysis.GlobalClusteringCoefficient(g) < 3*analysis.GlobalClusteringCoefficient(gnm) {
		t.Fatal("geometric graph not more clustered than GNM")
	}
}

func TestRandomGeometricRejectsBadRadius(t *testing.T) {
	if g, err := RandomGeometric(10, 0, 1); err == nil || g != nil {
		t.Fatalf("RandomGeometric(10, 0) = %v, %v; want CheckRandomGeometric's error", g, err)
	}
}

func TestKTreeIsChordalWithRightSize(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		for _, n := range []int{k + 1, 20, 100} {
			g := must(KTree(n, k, 9))
			want := int64(k)*int64(n) - int64(k)*int64(k+1)/2
			if g.NumEdges() != want {
				t.Fatalf("k=%d n=%d: %d edges, want %d", k, n, g.NumEdges(), want)
			}
			if !verify.IsChordal(g) {
				t.Fatalf("k=%d n=%d: k-tree not chordal", k, n)
			}
		}
	}
}

func TestKTreeExtractionKeepsEverything(t *testing.T) {
	// Extraction of a chordal k-tree with construction-order ids must
	// retain every edge: each vertex's smaller neighbors form a clique.
	g := must(KTree(200, 3, 11))
	res, err := core.Extract(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.NumChordalEdges()) != g.NumEdges() {
		t.Fatalf("kept %d of %d k-tree edges", res.NumChordalEdges(), g.NumEdges())
	}
}

func TestKTreePlusNoisePlantedBound(t *testing.T) {
	// The planted k-tree lower-bounds what extraction should find:
	// on a lightly noised instance the extracted chordal subgraph must
	// be at least a large fraction of the planted size.
	g, planted, err := KTreePlusNoise(300, 3, 150, 13)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != planted+150 {
		t.Fatalf("edge accounting: %d != %d + 150", g.NumEdges(), planted)
	}
	res, err := core.Extract(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !verify.IsChordal(res.ToGraph()) {
		t.Fatal("not chordal")
	}
	if int64(res.NumChordalEdges()) < planted/2 {
		t.Fatalf("extracted %d, planted %d — far below the planted bound", res.NumChordalEdges(), planted)
	}
}

func TestKTreeRejectsBadParams(t *testing.T) {
	if g, err := KTree(3, 3, 1); err == nil || g != nil {
		t.Fatalf("KTree(3, 3) = %v, %v; want CheckKTree's error", g, err)
	}
	if g, _, err := KTreePlusNoise(3, 3, 1, 1); err == nil || g != nil {
		t.Fatalf("KTreePlusNoise(3, 3, 1) = %v, %v; want CheckKTree's error", g, err)
	}
	// A complete k-tree has no room for noise: the call must fail, not
	// search forever for an absent edge.
	if g, _, err := KTreePlusNoise(4, 3, 1, 1); err == nil || g != nil {
		t.Fatalf("KTreePlusNoise(4, 3, 1) = %v, %v; want an error", g, err)
	}
}

func TestDeterminism(t *testing.T) {
	a := must(GNM(50, 100, 42))
	b := must(GNM(50, 100, 42))
	au, av := a.EdgeList()
	bu, bv := b.EdgeList()
	for i := range au {
		if au[i] != bu[i] || av[i] != bv[i] {
			t.Fatal("GNM not deterministic")
		}
	}
	x := must(KTree(40, 2, 42))
	y := must(KTree(40, 2, 42))
	if x.NumEdges() != y.NumEdges() {
		t.Fatal("KTree not deterministic")
	}
}

// csrHash is FNV-64a over a graph's CSR arrays, little-endian.
func csrHash(g *graph.Graph) string {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, g.Offsets)
	binary.Write(h, binary.LittleEndian, g.Adj)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestKTreeBytesPinned pins the CSR bytes of a few k-trees, among them
// the sharded-ktree benchmark graph and the engine bake-off's, and of
// one noised k-tree, to the values of the slice-per-clique construction
// the flat clique list replaced: the draw sequence, and so every graph,
// must not move.
func TestKTreeBytesPinned(t *testing.T) {
	for _, c := range []struct {
		n, k int
		seed uint64
		want string
	}{
		{800, 24, 501, "eeb6f48befde6a8c"},
		{1500, 24, 9, "9bfa8489ce948f83"},
		{120, 4, 7, "e4ea2f11b3e1bb48"},
		{50, 1, 2, "697705494847abe1"},
		{25, 24, 3, "4c5e8bdb4b00d902"},
	} {
		if got := csrHash(must(KTree(c.n, c.k, c.seed))); got != c.want {
			t.Errorf("KTree(%d, %d, %d) hashes to %s, want %s", c.n, c.k, c.seed, got, c.want)
		}
	}
	g, planted, err := KTreePlusNoise(200, 3, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := csrHash(g); got != "38d46710e31a277b" || planted != 594 {
		t.Errorf("KTreePlusNoise(200, 3, 400, 9) hashes to %s with %d planted, want 38d46710e31a277b with 594", got, planted)
	}
}

// TestKTreeFootprint pins the generator's O(n·k) state. KTree(800, 24,
// 501) on one worker allocates about 0.54 MB per call: the two
// endpoint arrays, which also hold every vertex's base clique, and the
// CSR build. A list that materialized every attachable clique (447 000
// ids here) allocated 2.91 MB per call.
func TestKTreeFootprint(t *testing.T) {
	const limit = 1 << 20
	const calls = 4
	KTree(800, 24, 501, 1) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		KTree(800, 24, 501, 1)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > limit {
		t.Fatalf("KTree(800, 24, 501, 1) allocated %d bytes per call, want at most %d", per, limit)
	}
}

// TestChecksBound pins the generator checks on what a source spec
// cannot reach (ParseSource refuses negative sizes and non-finite
// floats first, and its own table covers the boundaries): negative
// sizes, NaN, and GNM vertex counts whose n(n−1) nears or passes 64
// bits.
func TestChecksBound(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"gnm empty", CheckGNM(0, 0), true},
		{"gnm one vertex", CheckGNM(1, 1), false},
		{"gnm negative m", CheckGNM(10, -1), false},
		{"gnm negative n", CheckGNM(-1, 0), false},
		{"gnm n(n-1) just below 2^64", CheckGNM(1<<32, math.MaxInt64), false},
		{"gnm n(n-1) just past 2^64", CheckGNM(1<<32+1, math.MaxInt64), true},
		{"ws beta NaN", CheckWattsStrogatz(10, 4, math.NaN()), false},
		{"geo radius NaN", CheckRandomGeometric(10, math.NaN()), false},
		{"geo negative n", CheckRandomGeometric(-1, 0.5), false},
	} {
		if (c.err == nil) != c.ok {
			t.Errorf("%s: error %v, want accepted=%v", c.name, c.err, c.ok)
		}
	}
}

// BenchmarkKTree times the sharded-ktree benchmark graph's generation
// on one worker.
//
//	go test -bench=KTree -run '^$' ./internal/synth
func BenchmarkKTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KTree(800, 24, 501, 1)
	}
}
