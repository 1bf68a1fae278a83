package chordal_test

import (
	"context"
	"strings"
	"testing"

	"chordal"
)

// FuzzStream feeds arbitrary byte streams through the NDJSON delta
// parser into a live session: whatever the bytes, the session must not
// panic, and after every repair pass the maintained subgraph must be
// chordal. Malformed lines are skipped exactly as the CLI and service
// skip them; the vertex cap keeps hostile ids from allocating the id
// space.
func FuzzStream(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n0 2\n"))
	f.Add([]byte("0 1\n1 2\n2 3\n0 3\n0 2\n"))
	f.Add([]byte("{\"u\":0,\"v\":1}\n{\"u\":1,\"v\":0}\nnot a delta\n5 5\n-3 9\n"))
	f.Add([]byte("# comment\n\n7 99999999\n3 4\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}}
		s, err := chordal.OpenStream(context.Background(), spec, chordal.StreamConfig{
			MaxVertices: 4096,
			RepairEvery: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		pushed := 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			d, err := chordal.ParseEdgeDelta(line)
			if err != nil {
				continue
			}
			if _, err := s.Push(ctx, d.U, d.V); err != nil {
				t.Fatal(err)
			}
			if pushed++; pushed > 512 {
				break
			}
		}
		if _, err := s.Repair(ctx); err != nil {
			t.Fatal(err)
		}
		// The maintained (online) subgraph must be chordal after repair.
		edges := s.Maintained()
		us := make([]int32, len(edges))
		vs := make([]int32, len(edges))
		for i, e := range edges {
			us[i], vs[i] = e.U, e.V
		}
		st := s.Stats()
		if sub, err := chordal.BuildFromEdges(st.Vertices, us, vs); err != nil || !chordal.IsChordal(sub) {
			t.Fatalf("maintained subgraph not chordal after repair (%d edges, %v)", len(edges), err)
		}
		res, err := s.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !chordal.IsChordal(res.Subgraph) {
			t.Fatal("canonical close result not chordal")
		}
	})
}
