package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chordal/internal/parallel"
)

// This file implements three on-disk formats:
//
//   - Text edge list: "u v" per line, '#' or '%' comments, 0-based ids.
//   - Binary CSR: a compact little-endian dump for fast reload of large
//     generated graphs ("CHRD" magic, version 1).
//   - Matrix Market coordinate format (pattern/symmetric), the exchange
//     format most sparse-graph collections use, with 1-based ids.
//
// The two text readers stream the input in large line-aligned chunks
// that are parsed in parallel into per-worker edge buffers, so parsing
// keeps pace with the parallel CSR construction instead of bottlenecking
// the ingestion pipeline on one growing slice.

// WriteEdgeList writes g as a text edge list with a header comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# chordal edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	var err error
	buf := make([]byte, 0, 32)
	g.Edges(func(u, v int32) {
		if err == nil {
			buf = strconv.AppendInt(buf[:0], int64(u), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, '\n')
			_, err = bw.Write(buf)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// textChunk is one line-aligned block of input handed to a parse worker.
type textChunk struct {
	data []byte
	line int // 1-based line number of the first line in data
}

// chunkSize is the streaming block size for text parsing.
const chunkSize = 1 << 20

// lineError is a parse failure tagged with its line number so the
// earliest failure can be reported regardless of which worker hit it.
type lineError struct {
	line int
	err  error
}

// streamChunks reads r in line-aligned blocks and sends them to ch,
// tracking line numbers. stop aborts the producer early.
func streamChunks(r io.Reader, firstLine int, ch chan<- textChunk, stop *atomic.Bool) error {
	defer close(ch)
	line := firstLine
	var tail []byte
	for {
		if stop.Load() {
			return nil
		}
		// Grow past chunkSize when a single line exceeds it.
		buf := make([]byte, len(tail)+chunkSize)
		k := copy(buf, tail)
		nr, err := io.ReadFull(r, buf[k:])
		total := k + nr
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if total > 0 {
				ch <- textChunk{data: buf[:total], line: line}
			}
			return nil
		}
		if err != nil {
			return err
		}
		// Cut at the last newline; the remainder seeds the next block.
		cut := total
		for cut > 0 && buf[cut-1] != '\n' {
			cut--
		}
		if cut == 0 {
			// No newline in the whole block: keep growing the tail.
			tail = buf[:total]
			continue
		}
		ch <- textChunk{data: buf[:cut], line: line}
		for _, c := range buf[:cut] {
			if c == '\n' {
				line++
			}
		}
		tail = append([]byte(nil), buf[cut:total]...)
	}
}

// parseChunks runs the streaming producer and a pool of parse workers.
// parse is called concurrently with distinct worker ids; the earliest
// line error wins.
func parseChunks(r io.Reader, firstLine, workers int, parse func(worker int, c textChunk) *lineError) error {
	ch := make(chan textChunk, workers)
	var stop atomic.Bool
	errs := make([]*lineError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Every received chunk is parsed even after an error is
			// flagged: a worker may still hold a chunk earlier in the
			// stream than the one that failed, and skipping it would
			// lose the true earliest error. stop only halts the
			// producer, which bounds the waste to the buffered chunks.
			for c := range ch {
				if e := parse(worker, c); e != nil && errs[worker] == nil {
					errs[worker] = e
					stop.Store(true)
				}
			}
		}(w)
	}
	readErr := streamChunks(r, firstLine, ch, &stop)
	wg.Wait()
	var first *lineError
	for _, e := range errs {
		if e != nil && (first == nil || e.line < first.line) {
			first = e
		}
	}
	if first != nil {
		return first.err
	}
	return readErr
}

// parseID parses a decimal vertex id from b starting at i, returning
// the value and the index after the last digit consumed.
func parseID(b []byte, i int) (int64, int, bool) {
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		if v > math.MaxInt32 {
			return 0, i, false
		}
		i++
	}
	if i == start {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// parseEdgeLines scans the lines of one chunk for endpoint pairs,
// skipping blanks and '#'/'%' comments. base is subtracted from each id
// (1 for Matrix Market); ids must land in [0, maxVertex) when
// maxVertex > 0. Fields beyond the first two are ignored (Matrix
// Market entries carry numeric values; weighted edge lists likewise).
func parseEdgeLines(c textChunk, base int64, maxVertex int, emit func(u, v int32)) *lineError {
	data := c.data
	line := c.line
	for i := 0; i < len(data); line++ {
		end := i
		for end < len(data) && data[end] != '\n' {
			end++
		}
		ln := data[i:end]
		i = end + 1
		// Trim and classify.
		s := 0
		for s < len(ln) && isSpace(ln[s]) {
			s++
		}
		if s == len(ln) || ln[s] == '#' || ln[s] == '%' {
			continue
		}
		u, p, ok := parseID(ln, s)
		if !ok || (p < len(ln) && !isSpace(ln[p])) {
			return &lineError{line, fmt.Errorf("graph: line %d: bad vertex id in %q", line, string(ln))}
		}
		for p < len(ln) && isSpace(ln[p]) {
			p++
		}
		if p == len(ln) {
			return &lineError{line, fmt.Errorf("graph: line %d: need two fields, got %q", line, string(ln))}
		}
		v, p2, ok := parseID(ln, p)
		if !ok || (p2 < len(ln) && !isSpace(ln[p2])) {
			return &lineError{line, fmt.Errorf("graph: line %d: bad vertex id in %q", line, string(ln))}
		}
		u -= base
		v -= base
		if u < 0 || v < 0 {
			return &lineError{line, fmt.Errorf("graph: line %d: vertex id below %d", line, base)}
		}
		if maxVertex > 0 && (u >= int64(maxVertex) || v >= int64(maxVertex)) {
			return &lineError{line, fmt.Errorf("graph: line %d: entry (%d,%d) out of range", line, u+base, v+base)}
		}
		emit(int32(u), int32(v))
	}
	return nil
}

// readEdgeList parses a text edge list with streaming chunked parallel
// parsing, bounded to maxWorkers for both the chunked parse and the CSR
// build (<= 0 means machine width). The vertex count is the largest id
// plus one.
func readEdgeList(r io.Reader, maxWorkers int) (*Graph, error) {
	workers := parallel.WorkerCount(maxWorkers)
	bufs := parallel.NewEdgeBuffers(workers)
	maxIDs := parallel.NewPadded[int32](workers)
	for w := range maxIDs {
		maxIDs[w].V = -1
	}
	err := parseChunks(r, 1, workers, func(worker int, c textChunk) *lineError {
		return parseEdgeLines(c, 0, 0, func(u, v int32) {
			bufs.Add(worker, u, v)
			if u > maxIDs[worker].V {
				maxIDs[worker].V = u
			}
			if v > maxIDs[worker].V {
				maxIDs[worker].V = v
			}
		})
	})
	if err != nil {
		return nil, err
	}
	maxID := int32(-1)
	for w := range maxIDs {
		if maxIDs[w].V > maxID {
			maxID = maxIDs[w].V
		}
	}
	us, vs := bufs.Concat()
	return BuildFromEdges(int(maxID)+1, us, vs, maxWorkers), nil
}

// Binary CSR layout: the 4-byte magic "CHRD", uint32 version 1,
// uint64 n, uint64 adjLen, a uint8 sorted flag (0 or 1), then n+1
// int64 offsets and adjLen int32 adjacency entries, all little-endian.
const (
	binaryMagic = "CHRD"
	// BinaryHeaderSize is the byte length of the binary CSR header that
	// precedes the offsets.
	BinaryHeaderSize = 4 + 4 + 8 + 8 + 1
	// binaryChunk bounds the one buffer each WriteBinary or ReadBinary
	// call passes both arrays through.
	binaryChunk = 64 << 10
	// binaryPrealloc caps the bytes ReadBinary allocates per array on
	// the header's word alone, as Go's internal/saferio does. Past it an
	// array grows only as its bytes arrive, so a short stream that
	// declares a huge graph fails at EOF instead of allocating what it
	// declares.
	binaryPrealloc = 16 << 20
)

// DecodeBinaryHeader parses the BinaryHeaderSize-byte header of a binary
// CSR stream: it checks the magic, the version, the sorted flag and the
// format's plausibility bound (n <= 2^33, adjLen <= 2^40) and returns
// the vertex count, the adjacency length and the sorted flag.
func DecodeBinaryHeader(hdr []byte) (n, adjLen int64, sorted bool, err error) {
	if len(hdr) < BinaryHeaderSize {
		return 0, 0, false, fmt.Errorf("graph: binary header is %d bytes, want %d", len(hdr), BinaryHeaderSize)
	}
	if string(hdr[:4]) != binaryMagic {
		return 0, 0, false, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != 1 {
		return 0, 0, false, fmt.Errorf("graph: unsupported binary version %d", v)
	}
	un, uadj := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	if un > 1<<33 || uadj > 1<<40 {
		return 0, 0, false, fmt.Errorf("graph: implausible header (V=%d, adj=%d)", un, uadj)
	}
	if hdr[24] > 1 {
		return 0, 0, false, fmt.Errorf("graph: bad sorted flag %d", hdr[24])
	}
	return int64(un), int64(uadj), hdr[24] == 1, nil
}

// WriteBinary writes g in the library's binary CSR format, passing the
// header and both arrays through one buffer of at most 64 KiB.
func WriteBinary(w io.Writer, g *Graph) error {
	buf := make([]byte, 0, min(binaryChunk, BinaryHeaderSize+8*len(g.Offsets)+4*len(g.Adj)))
	le := binary.LittleEndian
	buf = append(buf, binaryMagic...)
	buf = le.AppendUint32(buf, 1)
	buf = le.AppendUint64(buf, uint64(g.NumVertices()))
	buf = le.AppendUint64(buf, uint64(len(g.Adj)))
	sorted := byte(0)
	if g.Sorted {
		sorted = 1
	}
	buf = append(buf, sorted)
	for off := g.Offsets; len(off) > 0; {
		if len(buf)+8 > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		k := min(len(off), (cap(buf)-len(buf))/8)
		for _, o := range off[:k] {
			buf = le.AppendUint64(buf, uint64(o))
		}
		off = off[k:]
	}
	for adj := g.Adj; len(adj) > 0; {
		if len(buf)+4 > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		k := min(len(adj), (cap(buf)-len(buf))/4)
		for _, a := range adj[:k] {
			buf = le.AppendUint32(buf, uint32(a))
		}
		adj = adj[k:]
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinary reads a graph written by WriteBinary through one buffer of
// at most 64 KiB, reading no byte past the graph's end. It rejects, with
// an error, any stream that is not a simple symmetric graph: offsets
// that do not start at 0, decrease, or do not end at the adjacency
// length; ids outside [0, n); self loops and repeated neighbours; a row
// out of order under the sorted flag; and an edge without its reverse.
// The range and offset checks run inside the decode loop; the symmetry
// check is one O(V+E) cursor walk over sorted rows, and unsorted rows
// are first matched by in- and out-degree and sorted by SortAdjacency's
// transposition.
func ReadBinary(r io.Reader) (*Graph, error) {
	var hdr [BinaryHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	n, adjLen, sorted, err := DecodeBinaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, min(binaryChunk, 8*(n+1)+4*adjLen))
	le := binary.LittleEndian
	offsets := make([]int64, 0, min(n+1, binaryPrealloc/8))
	last := int64(0)
	for rem := n + 1; rem > 0; {
		k := min(rem, int64(len(buf)/8))
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, fmt.Errorf("graph: reading binary offsets: %w", err)
		}
		offsets = growBy(offsets, int(k), n+1)
		base := int64(len(offsets)) - k
		for i := range offsets[base:] {
			o := int64(le.Uint64(buf[8*i:]))
			if o < last || o > adjLen {
				return nil, fmt.Errorf("graph: offset %d at vertex %d decreases or passes the adjacency length %d", o, base+int64(i), adjLen)
			}
			offsets[base+int64(i)] = o
			last = o
		}
		rem -= k
	}
	if offsets[0] != 0 || last != adjLen {
		return nil, fmt.Errorf("graph: offsets run from %d to %d, want 0 to the adjacency length %d", offsets[0], last, adjLen)
	}
	adj := make([]int32, 0, min(adjLen, binaryPrealloc/4))
	for rem := adjLen; rem > 0; {
		k := min(rem, int64(len(buf)/4))
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return nil, fmt.Errorf("graph: reading binary adjacency: %w", err)
		}
		adj = growBy(adj, int(k), adjLen)
		base := int64(len(adj)) - k
		for i := range adj[base:] {
			a := int32(le.Uint32(buf[4*i:]))
			if a < 0 || int64(a) >= n {
				return nil, fmt.Errorf("graph: adjacency entry %d is vertex %d, outside [0, %d)", base+int64(i), a, n)
			}
			adj[base+int64(i)] = a
		}
		rem -= k
	}
	g := &Graph{Offsets: offsets, Adj: adj, Sorted: sorted}
	if err := g.CheckSimpleSymmetric(); err != nil {
		return nil, err
	}
	return g, nil
}

// growBy extends s by k elements, reallocating to at least twice its
// capacity (but no more than limit) when it must.
func growBy[T int32 | int64](s []T, k int, limit int64) []T {
	if len(s)+k > cap(s) {
		t := make([]T, len(s), min(max(2*int64(cap(s)), int64(len(s)+k)), limit))
		copy(t, s)
		s = t
	}
	return s[:len(s)+k]
}

// WriteMatrixMarket writes g in Matrix Market symmetric pattern format.
func WriteMatrixMarket(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern symmetric")
	fmt.Fprintf(bw, "%d %d %d\n", g.NumVertices(), g.NumVertices(), g.NumEdges())
	var err error
	buf := make([]byte, 0, 32)
	g.Edges(func(u, v int32) {
		if err == nil {
			// Matrix Market stores the lower triangle: row >= col.
			buf = strconv.AppendInt(buf[:0], int64(v)+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(u)+1, 10)
			buf = append(buf, '\n')
			_, err = bw.Write(buf)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// readMatrixMarket reads a coordinate-format Matrix Market graph,
// treating entries as undirected edges regardless of symmetry mode and
// ignoring any numeric values. The header is read serially; the entry
// body streams through the chunked parallel parser, which with the CSR
// build is bounded to maxWorkers (<= 0 means machine width).
func readMatrixMarket(r io.Reader, maxWorkers int) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := br.ReadString('\n')
	if err != nil && header == "" {
		return nil, fmt.Errorf("graph: empty Matrix Market input")
	}
	if !strings.HasPrefix(header, "%%MatrixMarket") {
		return nil, fmt.Errorf("graph: missing MatrixMarket banner")
	}
	if !strings.Contains(header, "coordinate") {
		return nil, fmt.Errorf("graph: only coordinate format is supported")
	}
	// Skip comments, read the size line.
	line := 1
	var n int
	for {
		text, err := br.ReadString('\n')
		if text == "" && err != nil {
			return nil, fmt.Errorf("graph: missing size line")
		}
		line++
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph: bad size line %q", text)
		}
		rows, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		cols, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, err
		}
		if rows != cols {
			return nil, fmt.Errorf("graph: matrix is %dx%d, need square", rows, cols)
		}
		n = rows
		if _, err := strconv.Atoi(fields[2]); err != nil {
			return nil, err
		}
		break
	}
	workers := parallel.WorkerCount(maxWorkers)
	bufs := parallel.NewEdgeBuffers(workers)
	err = parseChunks(br, line+1, workers, func(worker int, c textChunk) *lineError {
		return parseEdgeLines(c, 1, n, func(u, v int32) {
			bufs.Add(worker, u, v)
		})
	})
	if err != nil {
		return nil, err
	}
	us, vs := bufs.Concat()
	return BuildFromEdges(n, us, vs, maxWorkers), nil
}

// Format names the format of a graph file by its extension, matched
// without regard to case: "bin" (binary CSR) for .bin, "mtx" (Matrix
// Market) for .mtx, and "edges" (text edge list) for anything else.
// It is the one extension rule: SaveFile, LoadFileWorkers, the
// service's uploads and the external engine's file check all read it.
func Format(name string) string {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".bin":
		return "bin"
	case ".mtx":
		return "mtx"
	}
	return "edges"
}

// Read decodes a graph stream in the given Format, with the text
// formats' parallel parse and build bounded to maxWorkers (<= 0 means
// machine width); binary CSR decodes on one goroutine.
func Read(r io.Reader, format string, maxWorkers int) (*Graph, error) {
	switch format {
	case "bin":
		return ReadBinary(r)
	case "mtx":
		return readMatrixMarket(r, maxWorkers)
	}
	return readEdgeList(r, maxWorkers)
}

// SaveFile writes g to path in the Format its name gives.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	write := WriteEdgeList
	switch Format(path) {
	case "bin":
		write = WriteBinary
	case "mtx":
		write = WriteMatrixMarket
	}
	if err := write(f, g); err != nil {
		return err
	}
	return f.Close()
}

// LoadFileWorkers reads a graph from path in the Format its name gives,
// bounded to maxWorkers as in Read. The pipeline's acquire stage uses
// this so file ingestion respects a job's width.
func LoadFileWorkers(path string, maxWorkers int) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, Format(path), maxWorkers)
}
