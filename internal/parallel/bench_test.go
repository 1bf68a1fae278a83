package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// These benchmarks measure the dynamic For loop's scheduling overhead
// across grain sizes, the axis the extraction kernel's fixed core.Grain
// was chosen on (DESIGN.md §11). The body is a few arithmetic ops, so
// the numbers expose the per-block steal cost rather than useful work.

func benchFor(b *testing.B, grain int) {
	const n = 1 << 15
	workers := WorkerCount(0)
	sinks := NewPadded[int64](workers)
	var sink atomic.Int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(n, workers, grain, func(worker, i int) {
			sinks[worker].V += int64(i ^ (i >> 3))
		})
	}
	for w := range sinks {
		sink.Add(sinks[w].V)
	}
}

func BenchmarkForGrain16(b *testing.B)   { benchFor(b, 16) }
func BenchmarkForGrain64(b *testing.B)   { benchFor(b, 64) }
func BenchmarkForGrain256(b *testing.B)  { benchFor(b, 256) }
func BenchmarkForGrain1024(b *testing.B) { benchFor(b, 1024) }

// BenchmarkEdgeBuffers has two workers append 1<<16 edges each to their
// own EdgeBuffers slot, the pattern of the parallel generators and
// parsers. Every Add rewrites the worker's two slice headers, so the
// number shows whether adjacent workers' headers share a cache line.
func BenchmarkEdgeBuffers(b *testing.B) {
	const workers, perWorker = 2, 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bufs := NewEdgeBuffers(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int32(0); j < perWorker; j++ {
					bufs.Add(w, j, j+1)
				}
			}()
		}
		wg.Wait()
		if bufs.Len() != workers*perWorker {
			b.Fatalf("%d edges buffered, want %d", bufs.Len(), workers*perWorker)
		}
	}
}
