package chordalalg

import (
	"testing"
	"testing/quick"

	"chordal/internal/graph"
)

func TestMISKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"edgeless-4", graph.NewBuilder(4).Build(), 4},
		{"K5", complete(5), 1},
		{"path-5", path(5), 3},
		{"path-6", path(6), 3},
		{"triangle+tail", buildGraph(5, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}), 2},
		{"star", buildGraph(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}), 4},
	}
	for _, c := range cases {
		set, err := MaximumIndependentSet(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(set) != c.want {
			t.Fatalf("%s: |MIS| = %d, want %d", c.name, len(set), c.want)
		}
		// Independence.
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				if c.g.HasEdge(set[i], set[j]) {
					t.Fatalf("%s: returned set not independent", c.name)
				}
			}
		}
	}
}

func TestMISRejectsNonChordal(t *testing.T) {
	c4 := buildGraph(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if _, err := MaximumIndependentSet(c4); err == nil {
		t.Fatal("C4 accepted")
	}
	if _, _, err := CliqueCover(c4); err == nil {
		t.Fatal("CliqueCover accepted C4")
	}
}

func TestMISMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		g := randomChordal(13, 2+int(mRaw%70), seed)
		set, err := MaximumIndependentSet(g)
		if err != nil {
			return false
		}
		return len(set) == bruteForceMIS(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func bruteForceMIS(g *graph.Graph) int {
	n := g.NumVertices()
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		var members []int32
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				members = append(members, int32(v))
			}
		}
		if len(members) <= best {
			continue
		}
		ok := true
		for i := 0; i < len(members) && ok; i++ {
			for j := i + 1; j < len(members); j++ {
				if g.HasEdge(members[i], members[j]) {
					ok = false
					break
				}
			}
		}
		if ok {
			best = len(members)
		}
	}
	return best
}

func TestCliqueCoverValid(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randomChordal(100, 600, seed)
		cover, num, err := CliqueCover(g)
		if err != nil {
			t.Fatal(err)
		}
		if num != len(cover) {
			t.Fatal("count mismatch")
		}
		// Partition: every vertex exactly once.
		seen := make([]bool, g.NumVertices())
		for _, part := range cover {
			for _, v := range part {
				if seen[v] {
					t.Fatalf("vertex %d covered twice", v)
				}
				seen[v] = true
			}
			// Each part is a clique.
			for i := 0; i < len(part); i++ {
				for j := i + 1; j < len(part); j++ {
					if !g.HasEdge(part[i], part[j]) {
						t.Fatalf("part %v is not a clique", part)
					}
				}
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("vertex %d uncovered", v)
			}
		}
		// Perfection: cover size equals independence number.
		mis, err := MaximumIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if alpha := len(mis); num != alpha {
			t.Fatalf("clique cover %d != independence number %d", num, alpha)
		}
	}
}

func TestCliqueCoverEdgeless(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	cover, num, err := CliqueCover(g)
	if err != nil || num != 3 || len(cover) != 3 {
		t.Fatalf("edgeless cover %v (%v)", cover, err)
	}
}
