// Package biogen synthesizes gene-correlation networks with the
// structural signature of the paper's microarray inputs (GEO datasets
// GSE5140 and GSE17072).
//
// The real datasets are expression measurements that the paper turns
// into networks by connecting gene pairs whose Pearson correlation is at
// least 0.95. Those measurements are not redistributable, so this
// package substitutes a generative model that reproduces the properties
// the paper measures and attributes to them:
//
//   - tens of thousands of genes with an edge/vertex ratio of 14-23
//     (Table I);
//   - power-law-flavoured degree distribution with moderate maximum
//     degree but large variance;
//   - assortative structure: high-clustering vertices have few
//     neighbours, hubs have low clustering (Figure 2c);
//   - a wide shortest-path-length distribution (Figure 3c);
//   - around ten extraction iterations for Algorithm 1 (Figure 7b/c).
//
// The model plants correlated co-expression modules (complete-ish local
// groups, giving high clustering), threads them together with sparse
// chains of bridge genes (giving long shortest paths), and adds a small
// number of hub genes whose neighbours are spread across modules
// (giving hubs low clustering: assortativity in the paper's sense).
//
// Two construction paths are provided:
//
//   - Generate builds the network directly from the structural model.
//     This is the fast path used by benchmarks.
//   - GenerateExpression + CorrelationNetwork actually materializes a
//     synthetic expression matrix and thresholds pairwise Pearson
//     correlations, exercising the same pipeline the paper describes.
//     This path is quadratic in genes-per-block and is used by the
//     genecorrelation example and the tests that validate the direct
//     path against it.
package biogen

import (
	"fmt"
	"math"

	"chordal/internal/graph"
	"chordal/internal/parallel"
	"chordal/internal/xrand"
)

// Params configures the structural generator.
type Params struct {
	// Genes is the number of vertices (paper: 45k-49k).
	Genes int
	// ModuleSize is the mean size of a co-expression module.
	ModuleSize int
	// ModuleDensity is the probability of an intra-module edge in a
	// sparse (peripheral) module.
	ModuleDensity float64
	// DenseFrac is the fraction of modules that are near-cliques
	// (tight co-expression cores, density ~0.9). The mixture gives the
	// bimodal clustering of Figure 2c — many high-clustering
	// low-degree vertices — while the sparse majority keeps the
	// maximal chordal subgraph small, as in §V.
	DenseFrac float64
	// OverlapFrac is the fraction of a module shared with its
	// predecessor. Overlaps model genes participating in several
	// pathways; they riddle the network with chordless cycles and are
	// the main reason real correlation networks are far from chordal.
	OverlapFrac float64
	// BridgeLen is the mean length of the inter-module bridge chains.
	BridgeLen int
	// Hubs is the number of high-degree genes (e.g. transcription
	// factors) connected across modules.
	Hubs int
	// HubDegree is the mean degree of a hub.
	HubDegree int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the generation goroutines; <=0 means GOMAXPROCS.
	// Sampling uses per-module PRNG streams, so Workers affects only
	// speed, never the generated network.
	Workers int
}

// Dataset names the four networks of the paper's bio suite.
type Dataset int

const (
	// GSE5140CRT models the creatine-treated mouse network.
	GSE5140CRT Dataset = iota
	// GSE5140UNT models the untreated mouse network.
	GSE5140UNT
	// GSE17072CTL models the normal (control) breast-tissue network.
	GSE17072CTL
	// GSE17072NON models the non-familial cancerous tissue network.
	GSE17072NON
)

// String returns the paper's label for the dataset.
func (d Dataset) String() string {
	switch d {
	case GSE5140CRT:
		return "GSE5140(CRT)"
	case GSE5140UNT:
		return "GSE5140(UNT)"
	case GSE17072CTL:
		return "GSE17072(CTL)"
	case GSE17072NON:
		return "GSE17072(NON)"
	}
	return fmt.Sprintf("Dataset(%d)", int(d))
}

// PresetParams returns parameters tuned so each dataset's Table-I row
// (vertex count and edge/vertex ratio) is approximated. Pass scale=1 for
// paper-size networks, or a smaller fraction (e.g. 8 means 1/8 the
// genes) for quick runs; edge ratios are preserved.
func PresetParams(d Dataset, downscale int, seed uint64) Params {
	if downscale < 1 {
		downscale = 1
	}
	var p Params
	switch d {
	case GSE5140CRT: // V=45,023 E/V=15.87 maxdeg=690
		p = Params{Genes: 45023, ModuleSize: 100, ModuleDensity: 0.21, DenseFrac: 0.25, OverlapFrac: 0.35, BridgeLen: 6, Hubs: 140, HubDegree: 420}
	case GSE5140UNT: // V=45,020 E/V=14.31 maxdeg=315
		p = Params{Genes: 45020, ModuleSize: 100, ModuleDensity: 0.20, DenseFrac: 0.25, OverlapFrac: 0.30, BridgeLen: 7, Hubs: 120, HubDegree: 300}
	case GSE17072CTL: // V=48,803 E/V=19.44 maxdeg=365
		p = Params{Genes: 48803, ModuleSize: 105, ModuleDensity: 0.225, DenseFrac: 0.25, OverlapFrac: 0.45, BridgeLen: 6, Hubs: 150, HubDegree: 350}
	case GSE17072NON: // V=48,803 E/V=22.73 maxdeg=463
		p = Params{Genes: 48803, ModuleSize: 105, ModuleDensity: 0.25, DenseFrac: 0.25, OverlapFrac: 0.48, BridgeLen: 5, Hubs: 170, HubDegree: 440}
	default:
		panic("biogen: unknown dataset")
	}
	p.Genes /= downscale
	if p.Genes < 64 {
		p.Genes = 64
	}
	p.Hubs /= downscale
	if p.Hubs < 2 {
		p.Hubs = 2
	}
	// Hub degree is a per-vertex property and does not shrink with the
	// network; only cap it so hubs cannot touch most of a tiny graph.
	if p.HubDegree > p.Genes/6 {
		p.HubDegree = p.Genes / 6
	}
	if p.HubDegree < 8 {
		p.HubDegree = 8
	}
	p.Seed = seed
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Genes < 8 {
		return fmt.Errorf("biogen: need at least 8 genes, got %d", p.Genes)
	}
	if p.ModuleSize < 3 || p.ModuleSize > p.Genes {
		return fmt.Errorf("biogen: module size %d out of range", p.ModuleSize)
	}
	if p.ModuleDensity <= 0 || p.ModuleDensity > 1 {
		return fmt.Errorf("biogen: module density %f out of (0,1]", p.ModuleDensity)
	}
	if p.BridgeLen < 1 {
		return fmt.Errorf("biogen: bridge length %d must be >= 1", p.BridgeLen)
	}
	if p.Hubs < 0 || p.HubDegree < 0 {
		return fmt.Errorf("biogen: negative hub parameters")
	}
	if p.DenseFrac < 0 || p.DenseFrac > 1 {
		return fmt.Errorf("biogen: dense fraction %f out of [0,1]", p.DenseFrac)
	}
	if p.OverlapFrac < 0 || p.OverlapFrac >= 0.9 {
		return fmt.Errorf("biogen: overlap fraction %f out of [0,0.9)", p.OverlapFrac)
	}
	return nil
}

// Generate builds the network from the structural model directly. The
// module layout is laid down serially (it is a sequential chain), then
// the quadratic intra-module edge sampling and the hub wiring run in
// parallel on per-module and per-hub PRNG streams into per-worker edge
// buffers, keeping the output deterministic in Seed.
func Generate(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.NewXoshiro256(p.Seed)
	n := p.Genes
	workers := parallel.WorkerCount(p.Workers)
	bufs := parallel.NewEdgeBuffers(workers)

	// Reserve the first Hubs ids for hub genes so hubs tend to be low
	// ids. (Gene ids in correlation studies carry no meaning; the paper
	// numbers vertices arbitrarily, or by BFS for connectivity.)
	hubEnd := p.Hubs

	// Lay genes out as a chain of overlapping modules, with an
	// occasional sparse bridge run between them. Overlaps (shared
	// pathway genes) connect consecutive modules and create chordless
	// cycles through the shared region; bridges add long shortest
	// paths (Figure 3c). Most modules are sparse co-expression groups,
	// a DenseFrac of them near-clique cores (Figure 2c's
	// high-clustering, low-degree population).
	type module struct {
		lo, hi  int // [lo, hi)
		density float64
	}
	var modules []module
	v := hubEnd
	for v < n {
		// Sparse group ~ Normal(ModuleSize, ModuleSize/4); dense cores
		// are small (a quarter of the group size), as tight
		// co-expression cliques are in real data.
		mean := float64(p.ModuleSize)
		density := p.ModuleDensity
		if rng.Float64() < p.DenseFrac {
			mean /= 4
			density = 0.9
		}
		size := int(mean + rng.NormFloat64()*mean/4)
		if size < 3 {
			size = 3
		}
		if v+size > n {
			size = n - v
		}
		if size >= 3 {
			modules = append(modules, module{lo: v, hi: v + size, density: density})
		}
		// Next module starts inside this one (overlap), except when a
		// bridge chain intervenes (about one module in six).
		step := int(float64(size) * (1 - p.OverlapFrac))
		if step < 1 {
			step = 1
		}
		if rng.Float64() < 1.0/6 {
			// Bridge run: a path of isolated genes after the module.
			prev := v + size - 1
			if prev >= n {
				prev = n - 1
			}
			v += size
			blen := 1 + rng.Intn(2*p.BridgeLen)
			for j := 0; j < blen && v < n; j++ {
				bufs.Add(0, int32(prev), int32(v))
				prev = v
				v++
			}
			// The next module starts at the bridge end and connects to
			// it through its first gene.
			if v < n {
				bufs.Add(0, int32(prev), int32(v))
			}
		} else {
			v += step
		}
	}

	// Intra-module edges at each module's density: the quadratic bulk of
	// generation, parallel over modules on disjoint PRNG streams.
	moduleStreams := xrand.Streams(p.Seed^0x5bd1e9955bd1e995, len(modules))
	parallel.For(len(modules), workers, 4, func(worker, mi int) {
		m := modules[mi]
		mrng := moduleStreams[mi]
		for i := m.lo; i < m.hi; i++ {
			for j := i + 1; j < m.hi; j++ {
				if mrng.Float64() < m.density {
					bufs.Add(worker, int32(i), int32(j))
				}
			}
		}
	})

	// Hubs: each hub connects to HubDegree genes drawn from distinct
	// random modules, at most a few per module, so hub neighbourhoods
	// are sparse among themselves (low hub clustering coefficient).
	// Parallel over hubs, one PRNG stream each.
	hubStreams := xrand.Streams(p.Seed^0xa24baed4963ee407, hubEnd)
	parallel.For(hubEnd, workers, 1, func(worker, h int) {
		hrng := hubStreams[h]
		deg := p.HubDegree/2 + hrng.Intn(p.HubDegree+1)
		for k := 0; k < deg; k++ {
			m := modules[hrng.Intn(len(modules))]
			t := m.lo + hrng.Intn(m.hi-m.lo)
			bufs.Add(worker, int32(h), int32(t))
		}
		// Hubs are "unlikely to be connected" to each other
		// (assortative networks, Newman 2002): add no hub-hub edges.
	})

	us, vs := bufs.Concat()
	g := graph.BuildFromEdgesWorkers(n, us, vs, p.Workers)
	// Scatter vertex ids: microarray probe ids carry no relation to
	// co-expression modules, so module members must not be contiguous
	// in id space. (This also matters for reproduction fidelity: the
	// extraction algorithm resolves an id-contiguous dense module in
	// far fewer iterations than a scattered one.)
	return g.Relabel(rng.Perm(n)), nil
}

// ExpressionMatrix is a genes x samples matrix of synthetic expression
// levels, row-major.
type ExpressionMatrix struct {
	Genes   int
	Samples int
	Data    []float64
}

// At returns the expression of gene g in sample s.
func (m *ExpressionMatrix) At(g, s int) float64 { return m.Data[g*m.Samples+s] }

// GenerateExpression materializes a synthetic expression matrix whose
// correlation structure follows the structural model: genes in the same
// module share a latent profile plus small independent noise (pairwise
// correlation ≈ 0.95+), unrelated genes are independent, and each hub
// gene shares a weaker latent signal with its scattered targets.
//
// The returned assignments slice maps each gene to its module id (-1 for
// bridge and hub genes).
func GenerateExpression(genes, samples, moduleSize int, seed uint64) (*ExpressionMatrix, []int) {
	rng := xrand.NewXoshiro256(seed)
	m := &ExpressionMatrix{Genes: genes, Samples: samples, Data: make([]float64, genes*samples)}
	assign := make([]int, genes)
	for i := range assign {
		assign[i] = -1
	}
	moduleID := 0
	g := 0
	for g < genes {
		size := moduleSize/2 + rng.Intn(moduleSize+1)
		if size < 2 {
			size = 2
		}
		if g+size > genes {
			size = genes - g
		}
		// Latent module profile.
		latent := make([]float64, samples)
		for s := range latent {
			latent[s] = rng.NormFloat64()
		}
		for i := 0; i < size; i++ {
			// Correlated member: latent + noise. With noise sd sigma,
			// the true pairwise correlation is 1/(1+sigma^2); sigma =
			// 0.22 gives ~0.95, so whether a pair crosses the paper's
			// 0.95 threshold depends on sampling noise — the
			// finite-sample effect that makes real correlation
			// networks sparse, non-transitive, and non-chordal rather
			// than unions of cliques (the "noise" that refs [4,5]
			// sample away).
			const sigma = 0.22
			for s := 0; s < samples; s++ {
				m.Data[(g+i)*samples+s] = latent[s] + sigma*rng.NormFloat64()
			}
			assign[g+i] = moduleID
		}
		moduleID++
		g += size
		// An independent (uncorrelated) spacer gene between modules.
		if g < genes {
			for s := 0; s < samples; s++ {
				m.Data[g*samples+s] = rng.NormFloat64()
			}
			g++
		}
	}
	return m, assign
}

// CorrelationNetwork connects gene pairs whose Pearson correlation
// coefficient is at least threshold (the paper uses 0.95). It is
// O(genes^2 * samples): use only for modest sizes.
func CorrelationNetwork(m *ExpressionMatrix, threshold float64) *graph.Graph {
	n := m.Genes
	// Pre-normalize rows to mean 0, norm 1 so correlation is a dot
	// product.
	norm := make([]float64, n*m.Samples)
	for gi := 0; gi < n; gi++ {
		row := m.Data[gi*m.Samples : (gi+1)*m.Samples]
		mean := 0.0
		for _, x := range row {
			mean += x
		}
		mean /= float64(m.Samples)
		ss := 0.0
		dst := norm[gi*m.Samples : (gi+1)*m.Samples]
		for s, x := range row {
			d := x - mean
			dst[s] = d
			ss += d * d
		}
		inv := 0.0
		if ss > 0 {
			inv = 1 / math.Sqrt(ss)
		}
		for s := range dst {
			dst[s] *= inv
		}
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		ri := norm[i*m.Samples : (i+1)*m.Samples]
		for j := i + 1; j < n; j++ {
			rj := norm[j*m.Samples : (j+1)*m.Samples]
			dot := 0.0
			for s := range ri {
				dot += ri[s] * rj[s]
			}
			if dot >= threshold {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	return b.Build()
}
