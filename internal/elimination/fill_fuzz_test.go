package elimination

import (
	"testing"

	"chordal/internal/synth"
	"chordal/internal/verify"
)

// FuzzFill fuzzes Fill's order validation and counting: arbitrary bytes
// are decoded as a candidate elimination order for a fixed graph.
// Invalid orders (wrong length, repeats, out of range) must error
// cleanly; valid permutations must never panic and must count exactly
// the fill the elimination game creates.
//
//	go test -fuzz=FuzzFill -fuzztime=30s -run '^$' ./internal/elimination
func FuzzFill(f *testing.F) {
	g := must(synth.GNM(24, 60, 7))
	n := g.NumVertices()
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{5, 5, 5, 5})
	// The identity permutation and one rotation as well-formed seeds.
	id := make([]byte, n)
	rot := make([]byte, n)
	for i := range id {
		id[i] = byte(i)
		rot[i] = byte((i + 7) % n)
	}
	f.Add(id)
	f.Add(rot)
	f.Fuzz(func(t *testing.T, raw []byte) {
		order := make([]int32, len(raw))
		for i, b := range raw {
			order[i] = int32(int8(b)) // exercise negative values too
		}
		fill, err := Fill(g, order)
		if err != nil {
			// Must have rejected a genuinely invalid order.
			if isPermutation(order, n) {
				t.Fatalf("valid permutation rejected: %v", err)
			}
			return
		}
		if !isPermutation(order, n) {
			t.Fatalf("invalid order %v accepted", order)
		}
		if want := gameFill(g, order); fill != want {
			t.Fatalf("Fill = %d, elimination game = %d", fill, want)
		}
		// Zero fill must coincide with the order being a PEO.
		if (fill == 0) != verify.IsPEO(g, order) {
			t.Fatalf("fill %d disagrees with IsPEO=%t", fill, verify.IsPEO(g, order))
		}
	})
}

func isPermutation(order []int32, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
