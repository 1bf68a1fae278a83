// Package quality computes the paper's comparison axes for an
// extracted chordal subgraph: how much of the input the extraction
// retained, and how useful the subgraph is downstream. The metrics are
// shared by RunReport.Quality (every `chordal -json` run), the
// benchrunner engine bake-off matrix, and the differential test grid,
// so every engine is scored with exactly the same code.
//
// The three metric groups mirror the evaluation dimensions of the
// paper: edge retention (the paper's §V chordal-edge percentages),
// fill-in under the subgraph's perfect elimination ordering (the
// sparse-elimination application — all fill comes from edges outside
// the chordal subgraph, so a better extraction means less fill), and
// the linear-time chordal-graph invariants (treewidth and chromatic
// number of the subgraph, exact because the subgraph is chordal).
package quality

import (
	"fmt"

	"chordal/internal/elimination"
	"chordal/internal/graph"
	"chordal/internal/verify"
)

// Metrics scores one extracted chordal subgraph against its input
// graph. The zero value of a group's *Computed flag means the group
// was skipped by the Limits, not that it measured zero.
type Metrics struct {
	// EdgesInput and EdgesRetained size the input and the subgraph;
	// RetentionPct is the percentage of input edges kept (the paper's
	// §V metric).
	EdgesInput    int64   `json:"edgesInput"`
	EdgesRetained int64   `json:"edgesRetained"`
	RetentionPct  float64 `json:"retentionPct"`
	// FillComputed reports that the elimination metrics ran; the exact
	// count always runs, so it is true on every Metrics Compute
	// returns. FillIn is the number of fill edges symbolic elimination
	// creates on the INPUT graph under the subgraph's PEO — the
	// application-level quality of the extraction (every fill edge
	// traces to an input edge the extraction dropped). SubgraphFill is
	// the same count on the subgraph itself under its own PEO. It is 0
	// by definition, because the PEO was validated before any metric
	// was computed, so it is reported as 0 and not recounted; the field
	// stays in the JSON schema, and the tests recount it with
	// elimination.Fill.
	FillComputed bool  `json:"fillComputed"`
	FillIn       int64 `json:"fillIn"`
	SubgraphFill int64 `json:"subgraphFill"`
	// CliquesComputed reports whether the chordal-graph invariants ran
	// (skipped above Limits.MaxCliqueVertices). Treewidth is exact on the
	// subgraph: it is the largest label the maximum cardinality search
	// behind the subgraph's PEO assigned at pick time (verify.PEO), the
	// largest later neighborhood of that PEO. MaxCliqueSize = Treewidth
	// + 1 is recorded explicitly for readability, and ChromaticNumber
	// equals it, because a chordal graph is perfect (0 on an empty
	// vertex set).
	CliquesComputed bool `json:"cliquesComputed"`
	Treewidth       int  `json:"treewidth"`
	ChromaticNumber int  `json:"chromaticNumber"`
	MaxCliqueSize   int  `json:"maxCliqueSize"`
}

// Limits bounds the optional metric groups; retention and fill are
// always computed. The zero value computes everything.
type Limits struct {
	// MaxCliqueVertices skips the chordal-graph invariants when the
	// subgraph has more vertices. <= 0 means no bound.
	MaxCliqueVertices int
}

// DefaultLimits returns the bounds of always-on quality reporting.
func DefaultLimits() Limits {
	return Limits{MaxCliqueVertices: 1 << 20}
}

// Compute scores sub against its input graph g. sub must be chordal
// and defined over the same vertex set; a non-chordal sub (no PEO) is
// an error, never a bogus score. Every metric derives from one
// maximum-cardinality-search PEO of sub, which verify.PEO validates,
// and the whole computation is near-linear in the size of g, because
// the fill count comes from an elimination tree (see elimination.Fill).
// A caller that already holds that PEO calls ComputeFromPEO instead.
func Compute(g, sub *graph.Graph, lim Limits) (*Metrics, error) {
	peo, width, ok := verify.PEO(sub)
	if !ok {
		return nil, fmt.Errorf("quality: subgraph is not chordal")
	}
	return ComputeFromPEO(g, sub, peo, width, lim)
}

// ComputeFromPEO is Compute for a caller that holds a perfect
// elimination ordering of sub and its width, both as verify.PEO
// returned and validated them, as Runner.Run's verify stage does. The
// ordering is trusted as a PEO and width as its largest label, not
// checked again; an order that is not a permutation of the vertices is
// an error.
func ComputeFromPEO(g, sub *graph.Graph, peo []int32, width int, lim Limits) (*Metrics, error) {
	if g.NumVertices() != sub.NumVertices() {
		return nil, fmt.Errorf("quality: subgraph has %d vertices, input %d", sub.NumVertices(), g.NumVertices())
	}
	m := &Metrics{
		EdgesInput:    g.NumEdges(),
		EdgesRetained: sub.NumEdges(),
	}
	if m.EdgesInput > 0 {
		m.RetentionPct = 100 * float64(m.EdgesRetained) / float64(m.EdgesInput)
	}
	var err error
	if m.FillIn, err = elimination.Fill(g, peo); err != nil {
		return nil, err
	}
	m.FillComputed = true
	if lim.MaxCliqueVertices <= 0 || sub.NumVertices() <= lim.MaxCliqueVertices {
		m.Treewidth = width
		m.MaxCliqueSize = m.Treewidth + 1
		// A chordal graph is perfect: χ = ω = treewidth + 1, and 0 with
		// no vertices to color.
		if sub.NumVertices() > 0 {
			m.ChromaticNumber = m.MaxCliqueSize
		}
		m.CliquesComputed = true
	}
	return m, nil
}
