// Package parallel is the shared parallel runtime for every layer of
// the library: graph construction, file ingestion, the extraction
// kernel, the synthetic generators, and the analysis passes all
// schedule their work through it.
//
// It provides two parallel-for shapes — a dynamically scheduled one
// (For) that keeps skewed workloads balanced by letting workers steal
// fixed-size blocks, and a statically chunked one (ForChunks) for
// uniform per-element work where contiguous ranges maximize locality —
// plus the supporting primitives those loops need: a parallel prefix
// sum for CSR offset construction, per-worker edge buffers for
// lock-free generation and ingestion, and cache-line-padded counters
// for contention-free statistics.
//
// Centralizing the runtime means worker-count policy, grain tuning and
// instrumentation live in one place instead of being re-implemented
// per package (the seed carried three hand-rolled copies).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxParallelism is the effective parallelism ceiling: GOMAXPROCS, but
// never more than the physical CPUs the process may run on. CPU-bound
// loops gain nothing from oversubscribing cores — extra runnable
// goroutines only add preemption churn — so an inflated GOMAXPROCS
// (common in benchmarks and containers) is clamped.
func maxParallelism() int {
	w := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); w > c {
		w = c
	}
	if w < 1 {
		w = 1
	}
	return w
}

// WorkerCount resolves a requested worker count: values <= 0 select the
// effective parallelism (GOMAXPROCS clamped to the physical CPU count).
// Explicit positive requests are honored as given.
func WorkerCount(workers int) int {
	if workers <= 0 {
		return maxParallelism()
	}
	return workers
}

// WorkersFor picks a worker count for n items with the given minimum
// chunk size, bounded by the effective parallelism. It returns at
// least 1.
func WorkersFor(n, minChunk int) int {
	if minChunk < 1 {
		minChunk = 1
	}
	w := maxParallelism()
	if max := (n + minChunk - 1) / minChunk; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For executes fn(worker, i) for every i in [0, n), distributing blocks
// of grain consecutive indices to workers dynamically via an atomic
// block counter (the software analogue of the Cray XMT's dynamic loop
// scheduling the paper relies on). It blocks until all iterations
// complete. workers <= 0 selects GOMAXPROCS. The worker argument lets
// callers index per-worker scratch state without locking.
func For(n, workers, grain int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = WorkerCount(workers)
	if grain < 1 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	if workers > blocks {
		workers = blocks
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				b := next.Add(1) - 1
				if b >= int64(blocks) {
					return
				}
				lo := int(b) * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ForChunks partitions [0, n) into one contiguous chunk per worker and
// executes fn(worker, lo, hi) on each. Static chunking suits loops with
// uniform per-element cost; use For when the work per index is skewed.
// workers <= 0 selects GOMAXPROCS; the worker count is clamped to n.
func ForChunks(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = WorkerCount(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ForVertices runs fn(v) for v in [0, n) across statically chunked
// worker goroutines, the idiom of per-vertex passes over CSR arrays.
// Small loops (under the internal minimum chunk) run inline to avoid
// goroutine overhead.
func ForVertices(n int, fn func(v int)) {
	ForVerticesN(n, 0, fn)
}

// ForVerticesN is ForVertices with an explicit upper bound on worker
// goroutines, the hook that lets width-bounded callers (a service job
// runs at its slot's width) keep per-vertex passes inside that width
// instead of spilling to machine width. workers <= 0 selects the
// automatic count.
func ForVerticesN(n, workers int, fn func(v int)) {
	const minChunk = 2048
	w := WorkersFor(n, minChunk)
	if workers > 0 && w > workers {
		w = workers
	}
	ForChunks(n, w, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			fn(v)
		}
	})
}
