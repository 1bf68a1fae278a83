package parallel

// EdgeBuffers collects (u, v) endpoint pairs into per-worker slices so
// parallel generators and parsers can emit edges without locks, then
// gathers them into the flat endpoint slices BuildFromEdges consumes.
// Each worker must append only through its own index. A worker's two
// slices live in one Padded slot, so the slice headers every Add
// rewrites never share a cache line with another worker's.
type EdgeBuffers struct {
	bufs []Padded[edgeBuffer]
}

// edgeBuffer is one worker's endpoint slices.
type edgeBuffer struct {
	us, vs []int32
}

// NewEdgeBuffers returns buffers for the given number of worker slots
// (at least 1).
func NewEdgeBuffers(workers int) *EdgeBuffers {
	return &EdgeBuffers{bufs: NewPadded[edgeBuffer](workers)}
}

// Workers returns the number of per-worker slots.
func (b *EdgeBuffers) Workers() int { return len(b.bufs) }

// Grow pre-allocates capacity for n additional edges in worker's buffer.
func (b *EdgeBuffers) Grow(worker, n int) {
	e := &b.bufs[worker].V
	if cap(e.us)-len(e.us) < n {
		us := make([]int32, len(e.us), len(e.us)+n)
		copy(us, e.us)
		e.us = us
		vs := make([]int32, len(e.vs), len(e.vs)+n)
		copy(vs, e.vs)
		e.vs = vs
	}
}

// Add appends the edge (u, v) to worker's buffer.
func (b *EdgeBuffers) Add(worker int, u, v int32) {
	e := &b.bufs[worker].V
	e.us = append(e.us, u)
	e.vs = append(e.vs, v)
}

// Len returns the total number of buffered edges across all workers.
func (b *EdgeBuffers) Len() int {
	total := 0
	for i := range b.bufs {
		total += len(b.bufs[i].V.us)
	}
	return total
}

// Concat gathers the per-worker buffers into single endpoint slices in
// worker order. The copy itself runs with one goroutine per non-empty
// buffer. The buffers remain valid afterwards.
func (b *EdgeBuffers) Concat() (us, vs []int32) {
	total := b.Len()
	us = make([]int32, total)
	vs = make([]int32, total)
	offsets := make([]int, len(b.bufs))
	off := 0
	for w := range b.bufs {
		offsets[w] = off
		off += len(b.bufs[w].V.us)
	}
	ForChunks(len(b.bufs), len(b.bufs), func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			copy(us[offsets[w]:], b.bufs[w].V.us)
			copy(vs[offsets[w]:], b.bufs[w].V.vs)
		}
	})
	return us, vs
}
