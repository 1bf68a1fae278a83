// Package rmat implements the Recursive MATrix (R-MAT) graph generator of
// Chakrabarti, Zhan and Faloutsos, the generator the paper uses for its
// synthetic test suite.
//
// R-MAT places each edge by recursively descending a 2^scale x 2^scale
// adjacency matrix: at every level one of the four quadrants is chosen
// with probabilities (A, B, C, D) that sum to one. The paper's three
// parameterizations are provided as presets:
//
//	RMAT-ER {0.25, 0.25, 0.25, 0.25}  Erdős–Rényi-like, normal degrees
//	RMAT-G  {0.45, 0.15, 0.15, 0.25}  skewed, small-world communities
//	RMAT-B  {0.55, 0.15, 0.15, 0.15}  heavily skewed, widest degree range
//
// Following the paper, the number of requested edges is eight times the
// number of vertices (EdgeFactor = 8) unless overridden, and the final
// simple graph may have slightly fewer edges after removing duplicates
// and self loops — exactly the effect visible in the paper's Table I,
// where RMAT-B loses the most edges to duplication.
package rmat

import (
	"fmt"

	"chordal/internal/graph"
	"chordal/internal/parallel"
	"chordal/internal/xrand"
)

// Params configures a generation run.
type Params struct {
	// Scale sets the vertex count to 2^Scale.
	Scale int
	// EdgeFactor is the requested edges per vertex (paper: 8).
	EdgeFactor int
	// A, B, C, D are the quadrant probabilities; they must be positive
	// and sum to 1 within a small tolerance.
	A, B, C, D float64
	// Seed makes generation deterministic: the same Params yield the
	// same graph regardless of worker count or machine.
	Seed uint64
	// Noise, when positive, perturbs the quadrant probabilities at each
	// recursion level by up to +/-Noise (the "smoothing" commonly applied
	// to avoid exact self-similarity). Zero matches the classic model.
	Noise float64
	// Workers bounds the generation goroutines; <=0 means GOMAXPROCS.
	// It affects only speed, never the sampled graph.
	Workers int
}

// Preset names the paper's three parameterizations.
type Preset int

const (
	// ER is RMAT-ER: uniform quadrants, Erdős–Rényi-like.
	ER Preset = iota
	// G is RMAT-G: skewed degree distribution with subcommunities.
	G
	// B is RMAT-B: the widest degree distribution of the three.
	B
)

// String returns the paper's name for the preset.
func (p Preset) String() string {
	switch p {
	case ER:
		return "RMAT-ER"
	case G:
		return "RMAT-G"
	case B:
		return "RMAT-B"
	}
	return fmt.Sprintf("Preset(%d)", int(p))
}

// PresetParams returns the Params for one of the paper's presets at the
// given scale with the paper's edge factor of 8.
func PresetParams(p Preset, scale int, seed uint64) Params {
	params := Params{Scale: scale, EdgeFactor: 8, Seed: seed}
	switch p {
	case ER:
		params.A, params.B, params.C, params.D = 0.25, 0.25, 0.25, 0.25
	case G:
		params.A, params.B, params.C, params.D = 0.45, 0.15, 0.15, 0.25
	case B:
		params.A, params.B, params.C, params.D = 0.55, 0.15, 0.15, 0.15
	default:
		panic("rmat: unknown preset")
	}
	return params
}

// Check reports whether scale and edgeFactor lie in the generator's
// bounds: scale in [1,30] and edgeFactor >= 1. Validate applies it, and
// spec parsers call it so that a bad spec fails when parsed.
func Check(scale, edgeFactor int) error {
	if scale < 1 || scale > 30 {
		return fmt.Errorf("rmat: scale %d out of range [1,30]", scale)
	}
	if edgeFactor < 1 {
		return fmt.Errorf("rmat: edge factor %d must be >= 1", edgeFactor)
	}
	return nil
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := Check(p.Scale, p.EdgeFactor); err != nil {
		return err
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("rmat: probabilities sum to %f, want 1", sum)
	}
	for _, q := range []float64{p.A, p.B, p.C, p.D} {
		if q <= 0 {
			return fmt.Errorf("rmat: probabilities must be positive")
		}
	}
	if p.Noise < 0 || p.Noise >= 0.1 {
		return fmt.Errorf("rmat: noise %f out of range [0,0.1)", p.Noise)
	}
	return nil
}

// genChunks is the fixed number of disjoint PRNG streams edge sampling
// is split into. It is a constant — not the worker or CPU count — so
// the sampled edge multiset depends only on the Params, never on the
// machine or on how many goroutines happened to run the chunks. That
// invariance is what lets the service layer cache generated inputs by
// canonical spec while running each job at a different worker width.
const genChunks = 256

// Generate produces the simple undirected graph described by p. Edges
// are sampled in a fixed number of chunks on disjoint PRNG streams and
// deduplicated during CSR construction, so the result is deterministic
// in the Params alone: Workers changes only how fast the chunks run,
// not the graph.
func Generate(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := 1 << p.Scale
	m := int64(n) * int64(p.EdgeFactor)

	chunks := genChunks
	if int64(chunks) > m {
		chunks = int(m)
	}
	if chunks < 1 {
		chunks = 1
	}
	workers := parallel.WorkerCount(p.Workers)
	if workers > chunks {
		workers = chunks
	}

	// One edge buffer per chunk (not per worker): Concat gathers them in
	// chunk order, so the edge stream is identical whichever workers ran
	// which chunks.
	streams := xrand.Streams(p.Seed, chunks)
	bufs := parallel.NewEdgeBuffers(chunks)
	per := m / int64(chunks)
	extra := m % int64(chunks)
	parallel.For(chunks, workers, 1, func(_, c int) {
		count := per
		if int64(c) < extra {
			count++
		}
		rng := streams[c]
		bufs.Grow(c, int(count))
		for i := int64(0); i < count; i++ {
			u, v := sampleEdge(rng, p)
			bufs.Add(c, u, v)
		}
	})
	us, vs := bufs.Concat()
	return graph.BuildFromEdges(n, us, vs, p.Workers), nil
}

// sampleEdge draws one edge by recursive quadrant descent.
func sampleEdge(rng *xrand.Xoshiro256, p Params) (int32, int32) {
	var u, v int32
	a, b, c := p.A, p.B, p.C
	for level := 0; level < p.Scale; level++ {
		al, bl, cl := a, b, c
		if p.Noise > 0 {
			// Symmetric perturbation keeps the expected mass per
			// quadrant unchanged while breaking self-similarity.
			al += p.Noise * (2*rng.Float64() - 1) * a
			bl += p.Noise * (2*rng.Float64() - 1) * b
			cl += p.Noise * (2*rng.Float64() - 1) * c
		}
		r := rng.Float64()
		switch {
		case r < al:
			// top-left: no bits set
		case r < al+bl:
			v |= 1 << uint(level)
		case r < al+bl+cl:
			u |= 1 << uint(level)
		default:
			u |= 1 << uint(level)
			v |= 1 << uint(level)
		}
	}
	return u, v
}
