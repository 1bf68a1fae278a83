package extio

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/partition"
	"chordal/internal/rmat"
	"chordal/internal/shard"
	"chordal/internal/synth"
)

// testGraph generates a deterministic RMAT graph for the parity tests.
func testGraph(t *testing.T, preset rmat.Preset, scale int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := rmat.Generate(rmat.PresetParams(preset, scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// writeBin writes g to a temp .bin and returns its path.
func writeBin(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// openBoth opens path mapped and in fallback mode; the caller runs the
// same assertions against each, proving reader parity.
func openBoth(t *testing.T, path string) map[string]*MappedCSR {
	t.Helper()
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFallback(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close(); fb.Close() })
	if fb.Mapped() {
		t.Fatal("OpenFallback produced a mapped reader")
	}
	return map[string]*MappedCSR{"mapped": mm, "fallback": fb}
}

func TestMappedHeaderAndWholeGraph(t *testing.T) {
	g := testGraph(t, rmat.G, 8, 7)
	path := writeBin(t, g)
	for mode, m := range openBoth(t, path) {
		if m.NumVertices() != g.NumVertices() || m.NumEdges() != g.NumEdges() || m.Sorted() != g.Sorted {
			t.Fatalf("%s: header (n=%d m=%d sorted=%t) != graph (n=%d m=%d sorted=%t)",
				mode, m.NumVertices(), m.NumEdges(), m.Sorted(), g.NumVertices(), g.NumEdges(), g.Sorted)
		}
		got, err := m.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Offsets, g.Offsets) || !reflect.DeepEqual(got.Adj, g.Adj) || got.Sorted != g.Sorted {
			t.Fatalf("%s: whole-graph decode differs from the source graph", mode)
		}
		if m.BytesRead() == 0 {
			t.Fatalf("%s: BytesRead not accounted", mode)
		}
	}
}

// TestMappedGraphDecodesOnce: in mapped mode Graph decodes the CSR into
// fresh arrays once, allocating less than 1.5× the file, and the graph
// it returns is graph.ReadBinary's and outlives Close.
func TestMappedGraphDecodesOnce(t *testing.T) {
	g, err := synth.GNM(20000, 100000, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeBin(t, g)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Skip("memory mapping unavailable")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := m.Graph()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) >= 1.5*float64(m.SizeBytes()) {
		t.Errorf("Graph allocated %d bytes for a %d-byte CSR, want under 1.5x", alloc, m.SizeBytes())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := graph.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("mapped Graph after Close differs from graph.ReadBinary")
	}
}

// TestShardMatchesRange pins the byte-identity contract: a shard
// decoded from a file, with sorted or shuffled rows, must equal what
// graph.Graph.Range cuts for the same contiguous range — the input the
// in-memory sharded engine feeds its kernels.
func TestShardMatchesRange(t *testing.T) {
	g := testGraph(t, rmat.B, 8, 5)
	n := g.NumVertices()
	for _, file := range []*graph.Graph{g, graph.ShuffleAdjacency(g, 3)} {
		for mode, m := range openBoth(t, writeBin(t, file)) {
			for _, parts := range []int{2, 3, 7} {
				for p := 0; p < parts; p++ {
					lo, hi := partition.Bounds(n, parts, p)
					want := g.Range(lo, hi)
					got, err := m.Shard(lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Adj, want.Adj) || got.Sorted != want.Sorted {
						t.Fatalf("%s sorted=%t parts=%d shard=%d: decoded shard differs from Range", mode, file.Sorted, parts, p)
					}
				}
			}
		}
	}
}

// TestEdgesMatchesGraphOrder pins the edge-stream order contract the
// reconciliation pass depends on.
func TestEdgesMatchesGraphOrder(t *testing.T) {
	g := testGraph(t, rmat.ER, 8, 3)
	path := writeBin(t, g)
	var want []core.Edge
	g.Edges(func(u, v int32) { want = append(want, core.Edge{U: u, V: v}) })
	for mode, m := range openBoth(t, path) {
		var got []core.Edge
		if err := m.Edges(func(u, v int32) bool { got = append(got, core.Edge{U: u, V: v}); return true }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: edge stream differs from graph.Edges (got %d, want %d edges)", mode, len(got), len(want))
		}
	}
}

// TestReconcileStopsReadingOnCancel reconciles a .bin whose adjacency
// spans several Edges chunks under a canceled context. The stitch scan
// stops the stream at its first context check, so the reader decodes
// the offsets and at most one adjacency chunk, not the whole file.
func TestReconcileStopsReadingOnCancel(t *testing.T) {
	g := testGraph(t, rmat.ER, 16, 7)
	if len(g.Adj) < 3*edgeChunkAdj {
		t.Fatalf("adjacency of %d entries spans fewer than 3 chunks of %d", len(g.Adj), edgeChunkAdj)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	limit := int64(g.NumVertices()+1)*8 + edgeChunkAdj*4
	for mode, m := range openBoth(t, writeBin(t, g)) {
		res := &shard.Result{NumVertices: m.NumVertices()}
		if err := res.Reconcile(ctx, m.Edges, 4, shard.Options{Shards: 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: a canceled reconcile returned %v, want context.Canceled", mode, err)
		}
		if got := m.BytesRead(); got > limit {
			t.Fatalf("%s: a canceled reconcile read %d of %d bytes, want at most %d (the offsets and one chunk)", mode, got, m.SizeBytes(), limit)
		}
	}
}

func TestStatsMatchesComputeStats(t *testing.T) {
	g := testGraph(t, rmat.G, 9, 11)
	want := graph.ComputeStats(g)
	for mode, m := range openBoth(t, writeBin(t, g)) {
		got, err := m.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: stats %+v != %+v", mode, got, want)
		}
	}
}

// TestOpenRejectsCorruptFiles checks every corruption class returns a
// clean error — no panic, no file descriptor or mapping left behind
// (the error paths close before returning, so a leak would trip the
// race/goroutine checks in CI rather than this assertion).
func TestOpenRejectsCorruptFiles(t *testing.T) {
	g := testGraph(t, rmat.ER, 6, 1)
	good := writeBin(t, g)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"empty":           write("empty.bin", nil),
		"shortHeader":     write("short.bin", raw[:10]),
		"badMagic":        write("magic.bin", append([]byte("XXXX"), raw[4:]...)),
		"badVersion":      write("version.bin", append(append([]byte{}, raw[:4]...), append([]byte{9, 0, 0, 0}, raw[8:]...)...)),
		"truncatedArrays": write("trunc.bin", raw[:len(raw)-5]),
		"trailingJunk":    write("junk.bin", append(append([]byte{}, raw...), 0xff)),
	}
	// An implausible header: n beyond the format's plausibility bound.
	huge := append([]byte{}, raw...)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<40)
	cases["implausible"] = write("huge.bin", huge)

	for name, p := range cases {
		for opener, open := range map[string]func(string) (*MappedCSR, error){"mapped": Open, "fallback": OpenFallback} {
			if m, err := open(p); err == nil {
				m.Close()
				t.Errorf("%s/%s: corrupt file opened without error", name, opener)
			}
		}
	}
}

// TestExtractRejectsCorruptArrays runs binary files whose header and
// size are sound but whose arrays are not through both readers at one
// and two shards: an offset raised past the next vertex's, an
// adjacency entry outside the vertex range, and vertex 0 listing a
// non-neighbour in place of its last neighbour. Each extraction must
// fail with an error, as graph.ReadBinary fails on the same file,
// instead of panicking or extracting from it.
func TestExtractRejectsCorruptArrays(t *testing.T) {
	g, err := synth.GNM(40, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(writeBin(t, g))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	adjAt := func(i int64) int { return headerSize + 8*(n+1) + 4*int(i) }
	// The substitute shares shard 0 of 2 with vertex 0, so the edge
	// {0, x} lacks its reverse inside one shard.
	x := int32(1)
	for slices.Contains(g.Neighbors(0), x) {
		x++
	}
	if int(x) >= n/2 {
		t.Fatalf("no non-neighbour of vertex 0 below %d", n/2)
	}
	dir := t.TempDir()
	corrupt := func(name string, edit func(b []byte)) string {
		b := slices.Clone(raw)
		edit(b)
		path := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	files := map[string]string{
		"raisedOffset": corrupt("offset", func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+8*6:], uint64(g.Offsets[7]+1))
		}),
		"idOutOfRange": corrupt("id", func(b []byte) {
			binary.LittleEndian.PutUint32(b[adjAt(int64(len(g.Adj)/2)):], 1_000_000)
		}),
		"missingReverse": corrupt("reverse", func(b []byte) {
			binary.LittleEndian.PutUint32(b[adjAt(g.Offsets[1]-1):], uint32(x))
		}),
	}
	for name, path := range files {
		if _, err := graph.LoadFileWorkers(path, 1); err == nil {
			t.Fatalf("%s: graph.ReadBinary accepted the file", name)
		}
		for opener, open := range map[string]func(string) (*MappedCSR, error){"mapped": Open, "fallback": OpenFallback} {
			for _, shards := range []int{1, 2} {
				m, err := open(path)
				if err != nil {
					t.Fatalf("%s/%s: %v (the header and size are sound)", name, opener, err)
				}
				_, err = Extract(context.Background(), m, Options{Options: shard.Options{Shards: shards}, SpillDir: t.TempDir()})
				m.Close()
				if err == nil {
					t.Errorf("%s/%s shards=%d: extracted from a corrupt file without error", name, opener, shards)
				}
			}
		}
	}
}

// TestExtractMatchesShardPackage is the driver's half of the
// byte-identity proof: the out-of-core Extract must produce exactly the
// edge set of shard.ExtractContext on the same graph at equal shard
// counts — across shard counts, residency bounds, both readers, and the
// reconciliation depths.
func TestExtractMatchesShardPackage(t *testing.T) {
	g := testGraph(t, rmat.G, 8, 7)
	path := writeBin(t, g)
	for _, shards := range []int{1, 2, 5} {
		for _, stitchOnly := range []bool{false, true} {
			want, err := shard.ExtractContext(context.Background(), g,
				shard.Options{Shards: shards, StitchOnly: stitchOnly})
			if err != nil {
				t.Fatal(err)
			}
			for mode, open := range map[string]func(string) (*MappedCSR, error){"mapped": Open, "fallback": OpenFallback} {
				for _, resident := range []int{1, 2, 4} {
					m, err := open(path)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Extract(context.Background(), m,
						Options{Options: shard.Options{Shards: shards, StitchOnly: stitchOnly}, Resident: resident, SpillDir: t.TempDir()})
					m.Close()
					if err != nil {
						t.Fatal(err)
					}
					if !got.Chordal {
						t.Fatalf("%s shards=%d resident=%d: merged subgraph not chordal", mode, shards, resident)
					}
					if !reflect.DeepEqual(got.Edges, want.Edges) {
						t.Fatalf("%s shards=%d resident=%d stitchOnly=%t: edge set differs from shard.ExtractContext (%d vs %d edges)",
							mode, shards, resident, stitchOnly, len(got.Edges), len(want.Edges))
					}
					interior := 0
					for _, st := range got.Shards {
						interior += st.ChordalEdges
					}
					if shards > 1 && got.IO.SpillBytes != int64(interior)*8 {
						t.Fatalf("%s shards=%d: spill %d bytes, want %d", mode, shards, got.IO.SpillBytes, interior*8)
					}
					if got.IO.PeakResident <= 0 {
						t.Fatalf("%s shards=%d: peak resident %d", mode, shards, got.IO.PeakResident)
					}
				}
			}
		}
	}
}

// TestPeakResidentIsDeterministic pins IOStats.PeakResident to the
// largest summed size of Resident consecutive shards, computed here
// from the shards themselves, on a skewed graph whose shards differ in
// size: every run at every worker count must report that one value,
// whatever the IO lane had buffered when each shard arrived.
func TestPeakResidentIsDeterministic(t *testing.T) {
	g := testGraph(t, rmat.B, 9, 3)
	path := writeBin(t, g)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const shards = 5
	sizes := make([]int64, shards)
	for p := range sizes {
		lo, hi := partition.Bounds(g.NumVertices(), shards, p)
		sub, err := m.Shard(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = sub.SizeBytes()
	}
	if sizes[0] == sizes[1] || sizes[1] == sizes[2] {
		t.Fatalf("shard sizes %v: want unequal neighbours", sizes)
	}
	for _, resident := range []int{1, 2, 3} {
		var want int64
		for p := range sizes {
			var sum int64
			for _, s := range sizes[p:min(p+resident, shards)] {
				sum += s
			}
			want = max(want, sum)
		}
		for _, workers := range []int{1, 2, 4} {
			for run := 0; run < 4; run++ {
				got, err := Extract(context.Background(), m, Options{
					Options:  shard.Options{Shards: shards, Core: core.Options{Workers: workers}},
					Resident: resident, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if got.IO.PeakResident != want {
					t.Fatalf("resident=%d workers=%d run %d: peak resident %d, want %d (shard sizes %v)",
						resident, workers, run, got.IO.PeakResident, want, sizes)
				}
			}
		}
	}
}

// TestExtractCancellation checks a canceled context surfaces promptly
// with no goroutine left blocked on the shard channel.
func TestExtractCancellation(t *testing.T) {
	g := testGraph(t, rmat.ER, 9, 2)
	m, err := Open(writeBin(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Extract(ctx, m, Options{Options: shard.Options{Shards: 8}, SpillDir: t.TempDir()}); err == nil {
		t.Fatal("canceled extraction returned nil error")
	}
}

// TestCutEdgesMatchesBorderTotal pins partition.CutEdges to the
// reconciliation pass's own border count — the two definitions of "edge
// cut" must agree.
func TestCutEdgesMatchesBorderTotal(t *testing.T) {
	g := testGraph(t, rmat.B, 8, 5)
	for _, parts := range []int{1, 2, 3, 8} {
		r, err := shard.Extract(g, shard.Options{Shards: parts})
		if err != nil {
			t.Fatal(err)
		}
		if cut := partition.CutEdges(g, parts); cut != int64(r.BorderTotal) {
			t.Fatalf("parts=%d: CutEdges %d != reconcile BorderTotal %d", parts, cut, r.BorderTotal)
		}
	}
}
