package worklist

import (
	"slices"
	"sync"
	"testing"

	"chordal/internal/xrand"
)

// visitAll runs one Visit on f and returns the vertices in call order.
func visitAll(f *Frontier, grain int) []int32 {
	var mu sync.Mutex
	var got []int32
	f.Visit(grain, func(_ int, v int32) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	return got
}

// readyAll marks every vertex of [0, n) ready.
func readyAll(f *Frontier, n int) {
	for v := 0; v < n; v++ {
		f.Ready(int32(v))
	}
}

// queueAll returns a one-worker frontier over [0, n) with every vertex
// queued and none ready.
func queueAll(n int, arrival bool) *Frontier {
	f := NewFrontier(n, 1, arrival)
	for v := 0; v < n; v++ {
		f.Push(0, int32(v))
	}
	f.Advance()
	return f
}

// span returns the ids lo, lo+1, ..., hi-1.
func span(lo, hi int) []int32 {
	out := []int32{}
	for v := lo; v < hi; v++ {
		out = append(out, int32(v))
	}
	return out
}

// TestFrontierVisitAscending pushes out of order and with duplicates;
// one worker must visit each vertex once, in strictly ascending order.
func TestFrontierVisitAscending(t *testing.T) {
	const n = 1000
	rng := xrand.NewXoshiro256(7)
	f := NewFrontier(n, 1, false)
	readyAll(f, n)
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
		readyAll(f, n)
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
		readyAll(f, n)
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
// keep their order, workers follow in index order, and a vertex that is
// not ready gets no call and is pushed again behind the vertices pushed
// before it. Every Visit here fits one grain, so it runs on one worker,
// in queue order.
func TestFrontierArrivalOrder(t *testing.T) {
	f := NewFrontier(100, 2, true)
	readyAll(f, 100)
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
	g := NewFrontier(100, 1, true)
	for _, v := range []int32{5, 4, 6} {
		g.Push(0, v)
		if v != 4 {
			g.Ready(v)
		}
	}
	g.Advance()
	var visited []int32
	g.Visit(64, func(worker int, v int32) {
		visited = append(visited, v)
		if v == 5 {
			g.Push(worker, 8) // pushed before the re-push of 4
		}
	})
	if want := []int32{5, 6}; !slices.Equal(visited, want) {
		t.Fatalf("visited %v, want %v: 4 is not ready", visited, want)
	}
	g.Advance()
	if g.Len() != 2 {
		t.Fatalf("Len %d after the re-push, want 2", g.Len())
	}
	g.Ready(4)
	g.Ready(8)
	if got, want := visitAll(g, 64), []int32{8, 4}; !slices.Equal(got, want) {
		t.Fatalf("after the wait %v, want %v", got, want)
	}
}

// TestFrontierWaitKeepsBit checks the ready gate in ordered mode: a
// queued vertex that is not ready gets no call, keeps its bit across
// Visits and counts in Len, and is visited in ascending order among the
// others once it is ready.
func TestFrontierWaitKeepsBit(t *testing.T) {
	f := NewFrontier(200, 1, false)
	for _, v := range []int32{70, 3, 5, 199} {
		f.Push(0, v)
	}
	f.Ready(5)
	f.Advance()
	if got := visitAll(f, 64); !slices.Equal(got, []int32{5}) {
		t.Fatalf("visited %v, want [5]", got)
	}
	for i := 0; i < 2; i++ {
		f.Advance()
		if f.Len() != 3 {
			t.Fatalf("Len %d with 3 waiting, want 3", f.Len())
		}
		if got := visitAll(f, 64); len(got) != 0 {
			t.Fatalf("visited %v, none ready", got)
		}
	}
	f.Push(0, 5)
	f.Ready(199)
	f.Ready(3)
	f.Advance()
	if got, want := visitAll(f, 64), []int32{3, 5, 199}; !slices.Equal(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	f.Advance()
	if f.Len() != 1 {
		t.Fatalf("Len %d, want 1 (70 still waits)", f.Len())
	}
}

// TestFrontierReadyDuringVisit checks, on one worker, the vertices a
// callback makes ready. Those ahead of the walk, in the same word or a
// later one, are visited in the same pass and in ascending order; those
// behind it wait for the next Visit. The sizes put the chain across
// bit 63 and into the last, partial word, up to v = n-1.
func TestFrontierReadyDuringVisit(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		for _, arrival := range []bool{false, true} {
			// Ahead: only 0 starts ready and each call readies its
			// successor.
			f := queueAll(n, arrival)
			f.Ready(0)
			var got []int32
			f.Visit(1<<20, func(_ int, v int32) {
				got = append(got, v)
				if int(v)+1 < n {
					f.Ready(v + 1)
				}
			})
			if !slices.Equal(got, span(0, n)) {
				t.Fatalf("n=%d arrival=%v: ahead visited %v, want 0..%d", n, arrival, got, n-1)
			}
			f.Advance()
			if f.Len() != 0 {
				t.Fatalf("n=%d arrival=%v: Len %d after visiting all", n, arrival, f.Len())
			}

			// Behind: only n-1 starts ready and its call readies every
			// other vertex.
			f = queueAll(n, arrival)
			f.Ready(int32(n - 1))
			got = got[:0]
			f.Visit(1<<20, func(_ int, v int32) {
				got = append(got, v)
				if int(v) == n-1 {
					for u := 0; u < n-1; u++ {
						f.Ready(int32(u))
					}
				}
			})
			if !slices.Equal(got, []int32{int32(n - 1)}) {
				t.Fatalf("n=%d arrival=%v: behind visited %v, want [%d]", n, arrival, got, n-1)
			}
			f.Advance()
			if f.Len() != n-1 {
				t.Fatalf("n=%d arrival=%v: Len %d, want %d waiting", n, arrival, f.Len(), n-1)
			}
			if got := visitAll(f, 1<<20); !slices.Equal(got, span(0, n-1)) {
				t.Fatalf("n=%d arrival=%v: next Visit %v, want 0..%d", n, arrival, got, n-2)
			}
		}
	}
}

// TestFrontierPushAdvance checks the Q2 → Q1 handoff: pushes become
// visible only after Advance, and an empty Advance empties the frontier.
func TestFrontierPushAdvance(t *testing.T) {
	f := NewFrontier(100, 4, false)
	readyAll(f, 100)
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
		f.Ready(2)
		f.Advance()
		if f.Len() != 1 {
			t.Fatalf("arrival=%v: Len = %d", arrival, f.Len())
		}
	}
}

// TestFrontierManyIterations runs the extraction loop's shape against
// a model: many push/visit/advance cycles on 3 workers with duplicate
// pushes and pushes of still-queued vertices, across grains. Multiples
// of 7 start not ready; visiting v readies v-3 when that is a multiple
// of 7, from inside the callback, so such a vertex waits in the queue
// for a few iterations. Whether a Visit reaches a vertex readied during
// it depends on timing, so each Visit must call every queued vertex
// that was ready at its start, each at most once, and no vertex that
// was not queued or not ready by its end; Len after Advance must equal
// the model's queue built from the calls actually made.
func TestFrontierManyIterations(t *testing.T) {
	const n = 1000
	readies := func(v int32) (int32, bool) {
		u := (v + n - 3) % n
		return u, u%7 == 0
	}
	for _, c := range []struct {
		arrival bool
		grain   int
	}{{false, 1}, {false, 64}, {false, 4096}, {true, 1}, {true, 64}} {
		f := NewFrontier(n, 3, c.arrival)
		ready := map[int32]bool{}
		for v := int32(0); v < n; v++ {
			if v%7 != 0 {
				f.Ready(v)
				ready[v] = true
			}
		}
		queue := map[int32]bool{}
		for _, v := range []int32{0, 1, 2, 300, 301, 302, 600, 601, 602} {
			f.Push(0, v)
			queue[v] = true
		}
		f.Advance()
		waits := 0
		for iter := 0; iter < 200; iter++ {
			if f.Len() != len(queue) {
				t.Fatalf("%+v iter %d: Len %d, want %d", c, iter, f.Len(), len(queue))
			}
			var mu sync.Mutex
			var got []int32
			f.Visit(c.grain, func(worker int, v int32) {
				mu.Lock()
				got = append(got, v)
				mu.Unlock()
				if u, ok := readies(v); ok {
					f.Ready(u)
				}
				f.Push(worker, (v+1)%n)
				f.Push(worker, (v+1)%n) // duplicate on purpose
			})
			readied := map[int32]bool{}
			for _, v := range got {
				if u, ok := readies(v); ok {
					readied[u] = true
				}
			}
			visited := map[int32]bool{}
			for _, v := range got {
				if visited[v] || !queue[v] || !(ready[v] || readied[v]) {
					t.Fatalf("%+v iter %d: call for %d repeated, not queued or not ready", c, iter, v)
				}
				visited[v] = true
			}
			next := map[int32]bool{}
			for v := range queue {
				if ready[v] && !visited[v] {
					t.Fatalf("%+v iter %d: %d queued and ready, not visited", c, iter, v)
				}
				if visited[v] {
					next[(v+1)%n] = true
				} else {
					next[v] = true
					waits++
				}
			}
			for u := range readied {
				ready[u] = true
			}
			queue = next
			f.Advance()
		}
		if waits == 0 {
			t.Fatalf("%+v: no vertex ever waited", c)
		}
	}
}
