package graph

import (
	"reflect"
	"sort"
	"testing"

	"chordal/internal/xrand"
)

// buildReference reproduces the seed's serial count + scatter + sort +
// compact construction, the baseline the parallel build must match
// byte-for-byte and the benchmark comparison point.
func buildReference(n int, us, vs []int32) *Graph {
	if len(us) != len(vs) {
		panic("graph: reference endpoint slices differ in length")
	}
	counts := make([]int64, n+1)
	for i := range us {
		if us[i] != vs[i] {
			counts[us[i]+1]++
			counts[vs[i]+1]++
		}
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	offsets := counts
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	for i := range us {
		u, v := us[i], vs[i]
		if u == v {
			continue
		}
		adj[offsets[u]+cursor[u]] = v
		cursor[u]++
		adj[offsets[v]+cursor[v]] = u
		cursor[v]++
	}
	newDeg := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		s := adj[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		k := 0
		for i := 0; i < len(s); i++ {
			if i == 0 || s[i] != s[i-1] {
				s[k] = s[i]
				k++
			}
		}
		newDeg[v+1] = int64(k)
	}
	finalOffsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		finalOffsets[v+1] = finalOffsets[v] + newDeg[v+1]
	}
	finalAdj := make([]int32, finalOffsets[n])
	for v := 0; v < n; v++ {
		src := adj[offsets[v] : offsets[v]+newDeg[v+1]]
		copy(finalAdj[finalOffsets[v]:finalOffsets[v+1]], src)
	}
	return &Graph{Offsets: finalOffsets, Adj: finalAdj, Sorted: true}
}

// rmatEdges samples R-MAT style endpoint tuples (RMAT-G quadrant
// probabilities) without going through the rmat package, which would
// create an import cycle in this test binary.
func rmatEdges(scale int, m int64, seed uint64) (int, []int32, []int32) {
	n := 1 << scale
	rng := xrand.NewXoshiro256(seed)
	us := make([]int32, m)
	vs := make([]int32, m)
	for i := range us {
		var u, v int32
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			switch {
			case r < 0.45:
			case r < 0.60:
				v |= 1 << uint(level)
			case r < 0.75:
				u |= 1 << uint(level)
			default:
				u |= 1 << uint(level)
				v |= 1 << uint(level)
			}
		}
		us[i], vs[i] = u, v
	}
	return n, us, vs
}

func identicalCSR(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.Sorted != want.Sorted {
		t.Fatalf("%s: Sorted = %v, want %v", tag, got.Sorted, want.Sorted)
	}
	if !reflect.DeepEqual(got.Offsets, want.Offsets) {
		t.Fatalf("%s: offsets differ", tag)
	}
	if !reflect.DeepEqual(got.Adj, want.Adj) {
		t.Fatalf("%s: adjacency differs", tag)
	}
}

// TestBuildFromEdgesMatchesReference is the property test for the
// parallel build: across duplicate- and self-loop-heavy random edge
// lists, skewed R-MAT lists and degenerate shapes, every worker count
// must produce a CSR byte-identical to the serial reference build.
func TestBuildFromEdgesMatchesReference(t *testing.T) {
	rng := xrand.NewXoshiro256(7)
	type input struct {
		tag    string
		n      int
		us, vs []int32
	}
	var inputs []input

	// Dense random lists with many duplicates and self loops.
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(300)
		m := rng.Intn(4 * n)
		us := make([]int32, m)
		vs := make([]int32, m)
		for i := 0; i < m; i++ {
			us[i] = int32(rng.Intn(n))
			if rng.Intn(4) == 0 {
				vs[i] = us[i] // planted self loop
			} else {
				vs[i] = int32(rng.Intn(n))
			}
		}
		inputs = append(inputs, input{"random", n, us, vs})
	}
	// Skewed: R-MAT tuples concentrate both duplicates and hubs.
	n, us, vs := rmatEdges(10, 1<<13, 99)
	inputs = append(inputs, input{"rmat", n, us, vs})
	// Degenerate shapes.
	inputs = append(inputs,
		input{"empty", 0, nil, nil},
		input{"no-edges", 5, nil, nil},
		input{"all-self-loops", 3, []int32{0, 1, 2}, []int32{0, 1, 2}},
		input{"one-edge", 2, []int32{1}, []int32{0}},
	)

	for _, in := range inputs {
		want := buildReference(in.n, in.us, in.vs)
		if err := want.Validate(); err != nil {
			t.Fatalf("%s: reference invalid: %v", in.tag, err)
		}
		for _, workers := range []int{0, 1, 2, 3, 7, 16} {
			got := BuildFromEdges(in.n, in.us, in.vs, workers)
			identicalCSR(t, in.tag, got, want)
		}
	}
}

func TestBuildFromEdgesDoesNotModifyInput(t *testing.T) {
	us := []int32{3, 1, 2, 2}
	vs := []int32{0, 3, 2, 0}
	usCopy := append([]int32(nil), us...)
	vsCopy := append([]int32(nil), vs...)
	BuildFromEdges(4, us, vs, 4)
	if !reflect.DeepEqual(us, usCopy) || !reflect.DeepEqual(vs, vsCopy) {
		t.Fatal("BuildFromEdges modified its input slices")
	}
}

// BenchmarkBuildFromEdges measures the parallel CSR build on R-MAT
// endpoint tuples at scale 20 (2^20 vertices, 2^23 requested edges).
// Compare against BenchmarkBuildFromEdgesSeedSerial, the seed's serial
// count+scatter construction, for the ingestion speedup.
func BenchmarkBuildFromEdges(b *testing.B) {
	n, us, vs := rmatEdges(20, 1<<23, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFromEdges(n, us, vs, 0)
	}
}

func BenchmarkBuildFromEdgesSeedSerial(b *testing.B) {
	n, us, vs := rmatEdges(20, 1<<23, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildReference(n, us, vs)
	}
}
