package graph

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	au, av := a.SortAdjacency().EdgeList()
	bu, bv := b.SortAdjacency().EdgeList()
	if !reflect.DeepEqual(au, bu) || !reflect.DeepEqual(av, bv) {
		t.Fatal("edge lists differ")
	}
}

func testGraph() *Graph {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	return b.Build()
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := testGraph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, "edges", 0)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, back)
}

func TestEdgeListCommentsAndBlankLines(t *testing.T) {
	in := "# comment\n\n% another comment\n0 1\n 1 2 \n"
	g, err := Read(strings.NewReader(in), "edges", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 x\n", "-1 2\n"}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in), "edges", 0); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{testGraph(), ShuffleAdjacency(testGraph(), 3)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, back)
		if back.Sorted != g.Sorted {
			t.Fatal("Sorted flag lost")
		}
	}
}

// binaryGolden is WriteBinary's encoding of testGraph(), pinned so the
// format cannot drift.
const binaryGolden = "434852440100000006000000000000000a0000000000000001" + // magic, version, n, adjLen, sorted
	"0000000000000000020000000000000004000000000000000600000000000000" + // offsets
	"070000000000000009000000000000000a00000000000000" +
	"01000000020000000000000002000000000000000100000004000000030000000500000004000000" // adjacency

func TestBinaryGolden(t *testing.T) {
	if got := hex.EncodeToString(encodeBinary(t, testGraph())); got != binaryGolden {
		t.Fatalf("WriteBinary(testGraph()) =\n%s\nwant\n%s", got, binaryGolden)
	}
}

func encodeBinary(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadBinaryRejectsTruncation cuts a valid encoding, sorted and
// unsorted, at every length short of its end.
func TestReadBinaryRejectsTruncation(t *testing.T) {
	for _, g := range []*Graph{testGraph(), ShuffleAdjacency(testGraph(), 3)} {
		raw := encodeBinary(t, g)
		for k := 0; k < len(raw); k++ {
			if _, err := ReadBinary(bytes.NewReader(raw[:k])); err == nil {
				t.Fatalf("sorted=%v: %d-byte prefix of %d accepted", g.Sorted, k, len(raw))
			}
		}
	}
}

// TestReadBinaryRejectsCorruption feeds one encoding per kind of
// corruption and checks each is an error naming it. WriteBinary does
// not validate, so it encodes the corrupt CSR arrays as given.
func TestReadBinaryRejectsCorruption(t *testing.T) {
	csr := func(sorted bool, offsets []int64, adj ...int32) []byte {
		return encodeBinary(t, &Graph{Offsets: offsets, Adj: adj, Sorted: sorted})
	}
	triangle := []int64{0, 2, 4, 6}
	patch := func(raw []byte, at int, b ...byte) []byte {
		copy(raw[at:], b)
		return raw
	}
	header := func(at int, b ...byte) []byte { return patch(encodeBinary(t, testGraph()), at, b...) }
	// One vertex whose offsets run to 2^40 and a header that agrees, then
	// no adjacency bytes at all.
	hugeAdj := patch(csr(true, []int64{0, 1 << 40}), 16, 0, 0, 0, 0, 0, 1)
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"offsets not starting at 0", csr(true, []int64{1, 2, 4, 6}, 1, 2, 0, 2, 0, 1), "want 0 to"},
		{"decreasing offsets", csr(true, []int64{0, 4, 2, 6}, 1, 2, 0, 2, 0, 1), "decreases"},
		{"offsets past the adjacency", csr(true, []int64{0, 2, 7, 6}, 1, 2, 0, 2, 0, 1), "passes the adjacency length"},
		{"final offset short of the adjacency", csr(true, []int64{0, 2, 4, 5}, 1, 2, 0, 2, 0, 1), "want 0 to"},
		{"neighbour id past n", csr(true, []int64{0, 0, 0, 1}, 7), "outside [0, 3)"},
		{"negative neighbour id", csr(true, triangle, 1, 2, 0, 2, 0, -1), "outside [0, 3)"},
		{"self loop", csr(true, []int64{0, 1, 1}, 0), "self loop"},
		{"self loop, unsorted", csr(false, []int64{0, 1, 1}, 0), "self loop"},
		{"repeated neighbour", csr(true, []int64{0, 2, 4}, 1, 1, 0, 0), "repeated"},
		{"repeated neighbour, unsorted", csr(false, []int64{0, 2, 4}, 1, 1, 0, 0), "repeated"},
		{"row out of order under the sorted flag", csr(true, triangle, 2, 1, 0, 2, 0, 1), "out of order"},
		{"edge without reverse, seen from below", csr(true, []int64{0, 1, 1}, 1), "missing reverse"},
		{"edge without reverse, seen from above", csr(true, []int64{0, 0, 1}, 0), "missing reverse"},
		{"edge without reverse, unsorted", csr(false, []int64{0, 1, 1}, 1), "degree"},
		{"directed cycle, unsorted", csr(false, []int64{0, 1, 2, 3}, 1, 2, 0), "missing reverse"},
		{"sorted flag not 0 or 1", header(24, 2), "sorted flag"},
		{"implausible vertex count", header(8, 0, 0, 0, 0, 0, 1), "implausible"},
		{"2^33 vertices declared, none sent", header(8, 0, 0, 0, 0, 2, 0), "reading binary offsets"},
		{"2^40 adjacency entries declared, none sent", hugeAdj, "reading binary adjacency"},
	}
	for _, c := range cases {
		_, err := ReadBinary(bytes.NewReader(c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// FuzzReadBinary checks that no byte string panics the decoder and that
// every graph it accepts is valid and re-encodes to exactly the bytes
// it consumed.
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*Graph{NewBuilder(0).Build(), testGraph(), ShuffleAdjacency(testGraph(), 3), completeGraph(5)} {
		f.Add(encodeBinary(f, g))
	}
	f.Add(encodeBinary(f, &Graph{Offsets: []int64{0, 0, 0, 1}, Adj: []int32{7}, Sorted: true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		g, err := ReadBinary(r)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		if got, want := encodeBinary(t, g), data[:len(data)-r.Len()]; !bytes.Equal(got, want) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", got, want)
		}
	})
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong version.
	var buf bytes.Buffer
	buf.WriteString("CHRD")
	buf.Write([]byte{9, 0, 0, 0})
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := testGraph()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "%%MatrixMarket") {
		t.Fatal("missing banner")
	}
	back, err := Read(&buf, "mtx", 0)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, back)
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a banner\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n0 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in), "mtx", 0); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestSaveLoadFileFormats(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	for name, magic := range map[string]string{
		"g.txt": "# chordal edge list", "g.bin": "CHRD", "g.mtx": "%%MatrixMarket",
		"G.BIN": "CHRD", "G.MTX": "%%MatrixMarket",
	} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, []byte(magic)) {
			t.Fatalf("%s: file does not start with %q (err %v)", name, magic, err)
		}
		back, err := LoadFileWorkers(path, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameGraph(t, g, back)
	}
}

// TestFormat pins the one extension rule: .bin and .mtx in any case,
// and only as the last extension of the name itself.
func TestFormat(t *testing.T) {
	for name, want := range map[string]string{
		"g.bin": "bin", "G.BIN": "bin", "g.Bin": "bin", "dir/g.bin": "bin",
		"g.mtx": "mtx", "G.MTX": "mtx",
		"g.bin.txt": "edges", "dir.bin/g": "edges", "graph": "edges", "g.txt": "edges",
	} {
		if got := Format(name); got != want {
			t.Errorf("Format(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFileWorkers(filepath.Join(t.TempDir(), "nope.txt"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "dir", "g.txt"), testGraph()); err == nil {
		t.Fatal("bad directory accepted")
	}
}

// TestEdgeListStreamingLargeInput pushes the reader across many chunk
// boundaries (the input is several MB) and checks the parallel parse
// reconstructs exactly the written graph.
func TestEdgeListStreamingLargeInput(t *testing.T) {
	const n = 2000
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= 40; k++ {
			w := (v + k*37) % n
			if v != w {
				b.AddEdge(int32(v), int32(w))
			}
		}
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Duplicate the body a few times so the stream spans multiple chunks
	// and contains heavy duplication.
	body := buf.Bytes()
	var big bytes.Buffer
	for i := 0; i < 3; i++ {
		big.Write(body)
	}
	t.Logf("streaming input: %d bytes", big.Len())
	back, err := Read(&big, "edges", 0)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, back)
}

// TestEdgeListErrorReportsEarliestLine checks that with parallel chunk
// parsing the reported failure is still the first bad line.
func TestEdgeListErrorReportsEarliestLine(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 100000; i++ {
		fmt.Fprintf(&buf, "%d %d\n", i%50, (i+1)%50)
	}
	buf.WriteString("oops here\n")
	for i := 0; i < 100000; i++ {
		fmt.Fprintf(&buf, "bad line too\n")
	}
	_, err := Read(&buf, "edges", 0)
	if err == nil {
		t.Fatal("bad input accepted")
	}
	if !strings.Contains(err.Error(), "line 100001") {
		t.Fatalf("error %q does not name the first bad line 100001", err)
	}
}

// TestEdgeListNoTrailingNewline exercises the final partial chunk.
func TestEdgeListNoTrailingNewline(t *testing.T) {
	g, err := Read(strings.NewReader("0 1\n1 2"), "edges", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("E=%d, want 2", g.NumEdges())
	}
}

// TestEdgeListExtraFields: weighted edge lists parse, extra fields are
// ignored (seed-compatible behavior).
func TestEdgeListExtraFields(t *testing.T) {
	g, err := Read(strings.NewReader("0 1 0.75\n1 2 0.9\n"), "edges", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("E=%d, want 2", g.NumEdges())
	}
}
