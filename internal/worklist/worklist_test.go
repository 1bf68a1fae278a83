package worklist

import (
	"slices"
	"sync"
	"testing"

	"chordal/internal/xrand"
)

// visitAll runs one Visit on f that dequeues every vertex and returns
// the vertices in call order.
func visitAll(f *Frontier, grain int) []int32 {
	var mu sync.Mutex
	var got []int32
	f.Visit(grain, func(_ int, v int32) bool {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
		return true
	})
	return got
}

// TestFrontierVisitAscending pushes out of order and with duplicates;
// one worker must visit each vertex once, in strictly ascending order.
func TestFrontierVisitAscending(t *testing.T) {
	const n = 1000
	rng := xrand.NewXoshiro256(7)
	f := NewFrontier(n, 1, false)
	want := map[int32]bool{}
	for i := 0; i < 600; i++ {
		v := int32(rng.Intn(n))
		f.Push(0, v)
		want[v] = true
	}
	f.Advance()
	got := visitAll(f, 64)
	if len(got) != len(want) || f.Len() != len(want) {
		t.Fatalf("visited %d, Len %d, want %d distinct", len(got), f.Len(), len(want))
	}
	for i, v := range got {
		if !want[v] {
			t.Fatalf("visited %d, never pushed", v)
		}
		if i > 0 && got[i-1] >= v {
			t.Fatalf("visit order not strictly ascending at %d: %d then %d", i, got[i-1], v)
		}
	}
}

// TestFrontierConcurrentPushDedup pushes the same vertices from 8
// goroutines, each starting at a different offset; every vertex must
// enter the frontier once.
func TestFrontierConcurrentPushDedup(t *testing.T) {
	for _, arrival := range []bool{false, true} {
		const workers, n = 8, 5000
		f := NewFrontier(n, workers, arrival)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if v := int32((i + w*613) % n); v%3 == 0 {
						f.Push(w, v)
					}
				}
			}(w)
		}
		wg.Wait()
		f.Advance()
		got := visitAll(f, 64)
		slices.Sort(got)
		if len(got) != f.Len() || len(slices.Compact(got)) != len(got) {
			t.Fatalf("arrival=%v: %d visits for Len %d, duplicates present", arrival, len(got), f.Len())
		}
		if want := (n-1)/3 + 1; len(got) != want {
			t.Fatalf("arrival=%v: %d distinct vertices, want %d", arrival, len(got), want)
		}
	}
}

// TestFrontierWordBoundaries covers sizes around one bitmap word and the
// last vertex id.
func TestFrontierWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		f := NewFrontier(n, 1, false)
		want := []int32{0}
		if n > 1 {
			want = append(want, int32(n/2), int32(n-1))
		}
		for i := len(want) - 1; i >= 0; i-- {
			f.Push(0, want[i])
		}
		f.Advance()
		if got := visitAll(f, 1); f.Len() != len(want) || !slices.Equal(got, want) {
			t.Fatalf("n=%d: Len %d, visited %v, want %v", n, f.Len(), got, want)
		}
	}
}

// TestFrontierArrivalOrder checks arrival mode: each worker's pushes
// keep their order, workers follow in index order, and a deferred
// vertex is pushed again behind the vertices pushed before it. Every
// Visit here fits one grain, so it runs on one worker, in queue order.
func TestFrontierArrivalOrder(t *testing.T) {
	f := NewFrontier(100, 2, true)
	for _, v := range []int32{9, 3, 9, 50} {
		f.Push(1, v)
	}
	for _, v := range []int32{70, 3, 1} {
		f.Push(0, v)
	}
	f.Advance()
	got := visitAll(f, 64)
	if want := []int32{70, 1, 9, 3, 50}; !slices.Equal(got, want) {
		t.Fatalf("visit order %v, want %v", got, want)
	}
	for _, v := range []int32{5, 4, 6} {
		f.Push(0, v)
	}
	f.Advance()
	f.Visit(64, func(worker int, v int32) bool {
		if v == 5 {
			f.Push(worker, 8) // pushed before the deferral of 4
		}
		return v != 4
	})
	f.Advance()
	if got, want := visitAll(f, 64), []int32{8, 4}; !slices.Equal(got, want) {
		t.Fatalf("after deferral %v, want %v", got, want)
	}
}

// TestFrontierPushAdvance checks the Q2 → Q1 handoff: pushes become
// visible only after Advance, and an empty Advance empties the frontier.
func TestFrontierPushAdvance(t *testing.T) {
	f := NewFrontier(100, 4, false)
	f.Push(0, 7)
	if f.Len() != 0 {
		t.Fatalf("push visible before Advance: Len %d", f.Len())
	}
	f.Advance()
	if got := visitAll(f, 64); !slices.Equal(got, []int32{7}) {
		t.Fatalf("visited %v, want [7]", got)
	}
	f.Advance()
	if f.Len() != 0 {
		t.Fatalf("empty advance Len = %d", f.Len())
	}
	f.Push(3, 7)
	f.Advance()
	if got := visitAll(f, 64); !slices.Equal(got, []int32{7}) {
		t.Fatalf("re-push visited %v, want [7]", got)
	}
}

// TestFrontierWorkersFloor checks that a non-positive worker count
// still leaves one push slot.
func TestFrontierWorkersFloor(t *testing.T) {
	for _, arrival := range []bool{false, true} {
		f := NewFrontier(4, 0, arrival)
		f.Push(0, 2)
		f.Advance()
		if f.Len() != 1 {
			t.Fatalf("arrival=%v: Len = %d", arrival, f.Len())
		}
	}
}

// TestFrontierManyIterations runs the extraction loop's shape against
// a model: many concurrent push/visit/advance cycles with duplicate
// pushes, pushes of still-queued vertices, and multiples of 7 staying
// queued for good, across grains. Each iteration must visit exactly
// the model's set, and Len must equal its size.
func TestFrontierManyIterations(t *testing.T) {
	const n = 1000
	for _, c := range []struct {
		arrival bool
		grain   int
	}{{false, 1}, {false, 64}, {false, 4096}, {true, 1}, {true, 64}} {
		f := NewFrontier(n, 3, c.arrival)
		want := []int32{0, 1, 2}
		for _, v := range want {
			f.Push(0, v)
		}
		f.Advance()
		for iter := 0; iter < 200; iter++ {
			if f.Len() != len(want) {
				t.Fatalf("%+v iter %d: Len %d, want %d", c, iter, f.Len(), len(want))
			}
			var mu sync.Mutex
			var got []int32
			f.Visit(c.grain, func(worker int, v int32) bool {
				mu.Lock()
				got = append(got, v)
				mu.Unlock()
				f.Push(worker, (v+1)%n)
				f.Push(worker, (v+1)%n) // duplicate on purpose
				return v%7 != 0
			})
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%+v iter %d: visited %v, want %v", c, iter, got, want)
			}
			next := map[int32]bool{}
			for _, v := range want {
				next[(v+1)%n] = true
				if v%7 == 0 {
					next[v] = true
				}
			}
			want = want[:0]
			for v := range next {
				want = append(want, v)
			}
			slices.Sort(want)
			f.Advance()
		}
	}
}
