package core

import (
	"encoding/binary"
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

// FuzzExtractChordality feeds arbitrary byte strings interpreted as
// edge lists through extraction and checks the Theorem-1 invariant
// (output chordal) plus accounting invariants under all three
// schedules. Run `go test -fuzz=FuzzExtractChordality ./internal/core`
// to search beyond the seed corpus.
func FuzzExtractChordality(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})                   // triangle
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})             // C4
	f.Add([]byte{7, 0, 7, 1, 7, 2, 7, 3})             // high-id star
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}) // K4
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		const n = 64
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%n), int32(raw[i+1]%n))
		}
		g := b.Build()
		var counts [3]int
		for i, s := range []Schedule{ScheduleDataflow, ScheduleAsync, ScheduleSynchronous} {
			res, err := Extract(g, Options{Schedule: s})
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			sub := res.ToGraph()
			if !verify.IsChordal(sub) {
				t.Fatalf("%v: output not chordal", s)
			}
			if res.TotalAccepted() != int64(res.NumChordalEdges()) {
				t.Fatalf("%v: accepted %d != edges %d", s, res.TotalAccepted(), res.NumChordalEdges())
			}
			for _, e := range res.Edges {
				if !g.HasEdge(e.U, e.V) {
					t.Fatalf("%v: edge %v not in input", s, e)
				}
			}
			counts[i] = res.NumChordalEdges()
		}
		// Repair must reach maximality on these small graphs.
		rep, err := Extract(g, Options{RepairMaximality: true})
		if err != nil {
			t.Fatal(err)
		}
		if viol := verify.AuditMaximality(g, rep.ToGraph(), 1); len(viol) != 0 {
			t.Fatalf("repair left violation %v", viol)
		}
	})
}

// FuzzSweepTrace reads a byte string as an edge list of 16-bit
// little-endian vertex ids over one more vertex than the largest id,
// and requires that the one-worker sweep equal the one-worker frontier
// on it: edges, chordal sets, iteration statistics apart from Duration,
// and the OnEvent and OnIteration sequences. The seeds are small
// graphs and the inputs of TestGoldenCounts and TestGoldenSchedule.
// Run `go test -fuzz=FuzzSweepTrace ./internal/core` to search beyond
// them.
func FuzzSweepTrace(f *testing.F) {
	for _, raw := range [][]byte{
		{0, 1, 1, 2, 2, 0},                   // triangle
		{0, 1, 1, 2, 2, 3, 3, 0},             // C4
		{7, 0, 7, 1, 7, 2, 7, 3},             // high-id star
		{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}, // K4
	} {
		wide := make([]byte, 0, 2*len(raw))
		for _, v := range raw {
			wide = append(wide, v, 0)
		}
		f.Add(wide)
	}
	for _, preset := range []rmat.Preset{rmat.ER, rmat.G, rmat.B} {
		f.Add(edgeBytes(must(rmat.Generate(rmat.PresetParams(preset, 10, 20120910)))))
	}
	f.Add(edgeBytes(must(biogen.Generate(biogen.PresetParams(biogen.GSE5140UNT, 64, 20120910)))))
	f.Add(edgeBytes(must(synth.WattsStrogatz(2000, 8, 0.1, 3, 1))))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			raw = raw[:1<<16]
		}
		ids := make([]int32, len(raw)/2)
		n := 0
		for i := range ids {
			ids[i] = int32(binary.LittleEndian.Uint16(raw[2*i:]))
			n = max(n, int(ids[i])+1)
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(ids); i += 2 {
			b.AddEdge(ids[i], ids[i+1])
		}
		requireSameTrace(t, "fuzz input", b.Build())
	})
}

// edgeBytes encodes g's edges in FuzzSweepTrace's input form; g's ids
// must fit in 16 bits.
func edgeBytes(g *graph.Graph) []byte {
	if g.NumVertices() > 1<<16 {
		panic("edgeBytes: vertex ids exceed 16 bits")
	}
	var raw []byte
	g.Edges(func(u, v int32) {
		raw = binary.LittleEndian.AppendUint16(raw, uint16(u))
		raw = binary.LittleEndian.AppendUint16(raw, uint16(v))
	})
	return raw
}
