package experiments

import (
	"fmt"
	"io"

	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/machine"
)

// Table1 regenerates the paper's Table I: structural properties of the
// test suite (vertices, edges, average/maximum degree, degree variance,
// edges per vertex).
func Table1(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "== Table I: properties of the test suite ==")
	fmt.Fprintf(w, "%-18s %12s %14s %8s %8s %12s %8s\n",
		"Group", "Vertices", "Edges", "AvgDeg", "MaxDeg", "Variance", "E/V")
	hline(w, 86)
	for _, p := range allPresets {
		for _, scale := range cfg.Scales {
			g, err := cfg.genRMAT(p, scale)
			if err != nil {
				return err
			}
			writeTable1Row(w, fmt.Sprintf("%s(%d)", p, scale), g)
		}
	}
	for _, d := range allDatasets {
		g, err := cfg.genBio(d)
		if err != nil {
			return err
		}
		writeTable1Row(w, d.String(), g)
	}
	return nil
}

func writeTable1Row(w io.Writer, name string, g *graph.Graph) {
	s := graph.ComputeStats(g)
	fmt.Fprintf(w, "%-18s %12d %14d %8.0f %8d %12.0f %8.2f\n",
		name, s.Vertices, s.Edges, s.AvgDegree, s.MaxDegree, s.DegreeVariance, s.EdgesByVertices)
}

// Table2 regenerates the paper's Table II: speedup per network. The
// measured column is the host multicore at the sweep maximum (the
// paper's Opteron column at 32); the XMT columns are the model's
// 128-processor projection for the unoptimized and optimized variants.
func Table2(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "== Table II: speedups (models @ paper machine sizes) ==")
	fmt.Fprintln(w, "at-scale columns: models driven by the measured trace as-is;")
	fmt.Fprintln(w, "paper-scale columns: the same trace extrapolated to the paper's input")
	fmt.Fprintln(w, "size (scale-24 R-MAT / full-size gene networks), where per-iteration")
	fmt.Fprintln(w, "sync stops dominating — these are the numbers comparable to Table II.")
	maxP := cfg.maxProcs()
	fmt.Fprintf(w, "%-18s %11s %11s %11s | %11s %11s %11s %11s\n",
		"Group", "XMT-Un", "XMT-Opt", "AMD-Un", "XMT*-Un", "XMT*-Opt", "AMD*-Un", fmt.Sprintf("Host@%d", maxP))
	hline(w, 112)
	row := func(name string, g *graph.Graph, paperFactor float64) error {
		xmt := machine.DefaultXMT()
		amd := machine.DefaultCacheCPU()
		type speeds struct{ at, paper float64 }
		xmtSpeed := map[core.Variant]speeds{}
		var amdAt, amdPaper float64
		for _, v := range []core.Variant{core.VariantUnoptimized, core.VariantOptimized} {
			res, _, err := cfg.measure(g, maxP, v)
			if err != nil {
				return err
			}
			tr := machine.TraceFromResult(res, g.NumEdges())
			big := machine.ScaleTrace(tr, paperFactor)
			xmtSpeed[v] = speeds{
				at:    machine.Speedup(xmt, tr, 128),
				paper: machine.Speedup(xmt, big, 128),
			}
			if v == core.VariantUnoptimized {
				amdAt = machine.Speedup(amd, tr, 32)
				amdPaper = machine.Speedup(amd, big, 32)
			}
		}
		// Host measured speedup, unoptimized variant as in the paper's
		// AMD column (flat on a single-core host).
		_, t1, err := cfg.measure(g, 1, core.VariantUnoptimized)
		if err != nil {
			return err
		}
		_, tp, err := cfg.measure(g, maxP, core.VariantUnoptimized)
		if err != nil {
			return err
		}
		host := float64(t1) / float64(tp)
		fmt.Fprintf(w, "%-18s %11.2f %11.2f %11.2f | %11.2f %11.2f %11.2f %11.2f\n",
			name,
			xmtSpeed[core.VariantUnoptimized].at, xmtSpeed[core.VariantOptimized].at, amdAt,
			xmtSpeed[core.VariantUnoptimized].paper, xmtSpeed[core.VariantOptimized].paper, amdPaper,
			host)
		return nil
	}
	for _, p := range allPresets {
		for _, scale := range cfg.Scales {
			g, err := cfg.genRMAT(p, scale)
			if err != nil {
				return err
			}
			factor := float64(int64(1) << (24 - uint(scale)))
			if scale > 24 {
				factor = 1
			}
			if err := row(fmt.Sprintf("%s(%d)", p, scale), g, factor); err != nil {
				return err
			}
		}
	}
	for _, d := range allDatasets {
		g, err := cfg.genBio(d)
		if err != nil {
			return err
		}
		factor := float64(cfg.BioDownscale)
		if factor < 1 {
			factor = 1
		}
		if err := row(d.String(), g, factor); err != nil {
			return err
		}
	}
	return nil
}

// Pct reports the chordal-edge percentages discussed in §V of the
// paper (RMAT-ER ~11%, RMAT-G ~10%, RMAT-B ~6%, biological 4-8%). It
// extracts at one worker: the edge set is the same at any width, but
// at two or more the iteration count depends on thread timing, and a
// table should read the same on every run.
func Pct(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "== §V: fraction of edges in the maximal chordal subgraph (one worker) ==")
	fmt.Fprintf(w, "%-18s %14s %14s %9s %6s\n", "Group", "Edges", "Chordal", "Percent", "Iters")
	hline(w, 66)
	row := func(name string, g *graph.Graph) error {
		res, err := core.Extract(g, core.Options{Workers: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %14d %14d %8.1f%% %6d\n",
			name, g.NumEdges(), res.NumChordalEdges(),
			100*float64(res.NumChordalEdges())/float64(g.NumEdges()),
			len(res.Iterations))
		return nil
	}
	for _, p := range allPresets {
		for _, scale := range cfg.Scales {
			g, err := cfg.genRMAT(p, scale)
			if err != nil {
				return err
			}
			if err := row(fmt.Sprintf("%s(%d)", p, scale), g); err != nil {
				return err
			}
		}
	}
	for _, d := range allDatasets {
		g, err := cfg.genBio(d)
		if err != nil {
			return err
		}
		if err := row(d.String(), g); err != nil {
			return err
		}
	}
	return nil
}
