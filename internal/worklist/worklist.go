// Package worklist provides the frontier of the extraction algorithm:
// the paper's Q1/Q2 queue pair as a sticky, ordered bitmap gated by a
// ready bitmap.
//
// Q1 is one bit per vertex that persists across iterations. A vertex
// is handed to the visit callback only once it is also marked ready;
// until then it keeps its bit, so waiting costs a share of a word AND
// instead of a call or a push. A visit walks the words in ascending
// order, so the queue is sorted without a sort. Q2 is an atomic bitmap
// that collects the pushes made during an iteration, deduplicated by
// the bit itself, and Advance folds it into Q1 at the barrier. An
// iteration costs O(n/64 + visited).
//
// Arrival mode, the ablation of a machine whose queue order is
// arbitrary, keeps Q1 as a list in push order instead: per-worker
// buffers concatenated in worker order, with the same Q2 bitmap
// deduplicating the pushes. A vertex that is not ready is pushed again.
package worklist

import (
	"math/bits"

	"chordal/internal/bitset"
	"chordal/internal/parallel"
)

// Frontier is the dual queue (Q1/Q2) of Algorithm 1 over vertex ids
// [0, n). Push and Ready are safe for concurrent use, also from inside
// a Visit callback; Visit, Advance and Len must not run concurrently
// with one another.
type Frontier struct {
	workers int
	next    *bitset.Atomic // Q2: pushes of the current iteration
	ready   *bitset.Atomic // vertices Visit may hand to its callback
	queued  []uint64       // Q1 bitmap (ordered mode)
	count   int            // |Q1| as of the last Advance

	arrival bool
	cur     []int32   // Q1 in push order (arrival mode)
	bufs    [][]int32 // per-worker push order of Q2 (arrival mode)
}

// NewFrontier creates an empty Frontier over vertex ids [0, n) for the
// given number of workers (at least 1). arrival selects arrival mode,
// which visits Q1 in push order instead of ascending id order.
func NewFrontier(n, workers int, arrival bool) *Frontier {
	if workers < 1 {
		workers = 1
	}
	f := &Frontier{workers: workers, next: bitset.NewAtomic(n), ready: bitset.NewAtomic(n), arrival: arrival}
	if arrival {
		f.bufs = make([][]int32, workers)
	} else {
		f.queued = make([]uint64, (n+63)/64)
	}
	return f
}

// Push adds v to the next frontier if it is not already there. It is
// safe for concurrent use provided each worker passes its own index.
func (f *Frontier) Push(worker int, v int32) {
	if !f.arrival {
		f.next.Set(int(v))
	} else if f.next.TestAndSet(int(v)) {
		f.bufs[worker] = append(f.bufs[worker], v)
	}
}

// Ready marks v ready: from now on Visit hands v to its callback
// instead of leaving it queued. A vertex stays ready for the life of
// the Frontier.
func (f *Frontier) Ready(v int32) { f.ready.Set(int(v)) }

// Len returns the size of the current frontier, counting the vertices
// that wait for Ready.
func (f *Frontier) Len() int { return f.count }

// Visit calls fn(worker, v) once for every vertex v of the current
// frontier that is ready, across the frontier's workers, handing out
// chunks of grain vertex ids (grain/64 bitmap words, at least one;
// grain queued vertices in arrival mode). Every visited vertex leaves
// the frontier; one that is not ready gets no call and stays queued
// for the next iteration (arrival mode pushes it again). On one worker
// the calls come in ascending id order (push order in arrival mode),
// and a vertex made ready by a callback is visited in the same pass
// when the walk has not passed it yet.
func (f *Frontier) Visit(grain int, fn func(worker int, v int32)) {
	if f.arrival {
		parallel.For(len(f.cur), f.workers, grain, func(worker, i int) {
			if v := f.cur[i]; f.ready.Test(int(v)) {
				fn(worker, v)
			} else {
				f.Push(worker, v)
			}
		})
		return
	}
	// Each word belongs to exactly one chunk, so its owner rewrites it
	// without atomics. After each call the ready word is loaded again
	// and only the bits above the visited one are taken: a callback
	// may make later vertices of the word ready.
	parallel.For(len(f.queued), f.workers, max(1, grain/64), func(worker, i int) {
		w := f.queued[i]
		for rest := w & f.ready.Word(i); rest != 0; {
			b := bits.TrailingZeros64(rest)
			fn(worker, int32(i*64+b))
			w &^= 1 << b
			rest = w & f.ready.Word(i) & (^uint64(0) << b)
		}
		f.queued[i] = w
	})
}

// Advance makes the pushes since the last Advance part of the current
// frontier and empties the next one: the barrier between iterations.
// It must not run concurrently with Push or Visit.
func (f *Frontier) Advance() {
	if f.arrival {
		f.cur = f.cur[:0]
		for w := range f.bufs {
			f.cur = append(f.cur, f.bufs[w]...)
			f.bufs[w] = f.bufs[w][:0]
		}
		f.next.Reset()
		f.count = len(f.cur)
		return
	}
	f.next.Drain(func(i int, w uint64) { f.queued[i] |= w })
	f.count = 0
	for _, w := range f.queued {
		f.count += bits.OnesCount64(w)
	}
}
