package experiments

import (
	"fmt"
	"io"

	"chordal/internal/analysis"
	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
	"chordal/internal/verify"
)

// Ablation runs the design-choice studies DESIGN.md §5 calls out, none
// of which appear in the paper: execution schedules, queue ordering,
// degree-based renumbering, the maximality repair, and extraction
// quality on the broader input families with a planted ground truth.
func Ablation(w io.Writer, cfg Config) error {
	if err := ablationSchedules(w, cfg); err != nil {
		return err
	}
	if err := ablationQueueOrder(w, cfg); err != nil {
		return err
	}
	if err := ablationNumbering(w, cfg); err != nil {
		return err
	}
	return ablationFamilies(w, cfg)
}

// ablationSchedules compares the three schedules on one skewed input.
func ablationSchedules(w io.Writer, cfg Config) error {
	scale := cfg.Scales[len(cfg.Scales)-1]
	g, err := cfg.genRMAT(rmat.B, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Ablation: schedules (RMAT-B(%d)) ==\n", scale)
	fmt.Fprintf(w, "%-14s %8s %10s %12s %10s\n", "schedule", "iters", "edges", "time", "determ.")
	hline(w, 60)
	for _, s := range []core.Schedule{core.ScheduleDataflow, core.ScheduleAsync, core.ScheduleSynchronous} {
		r, err := core.Extract(g, core.Options{Schedule: s})
		if err != nil {
			return err
		}
		det := "no"
		if s != core.ScheduleAsync {
			det = "yes"
		}
		fmt.Fprintf(w, "%-14s %8d %10d %12s %10s\n", s, len(r.Iterations), r.NumChordalEdges(), fmtDur(r.Total), det)
	}
	return nil
}

// ablationQueueOrder compares ascending and arbitrary queue order.
func ablationQueueOrder(w io.Writer, cfg Config) error {
	scale := cfg.Scales[len(cfg.Scales)-1]
	g, err := cfg.genRMAT(rmat.B, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Ablation: queue ordering (RMAT-B(%d)) ==\n", scale)
	fmt.Fprintf(w, "%-14s %8s %12s\n", "queue", "iters", "time")
	hline(w, 38)
	for _, unsorted := range []bool{false, true} {
		label := "ascending"
		if unsorted {
			label = "arbitrary"
		}
		r, err := core.Extract(g, core.Options{UnsortedQueue: unsorted})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %8d %12s\n", label, len(r.Iterations), fmtDur(r.Total))
	}
	return nil
}

// ablationNumbering shows the effect of id assignment on extraction
// quality (DESIGN.md §5: the algorithm is the Dearing rule with
// selection forced into id order).
func ablationNumbering(w io.Writer, cfg Config) error {
	g, err := cfg.genBio(allDatasets[1]) // GSE5140(UNT)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== Ablation: vertex numbering (%s) ==\n", allDatasets[1])
	fmt.Fprintf(w, "%-22s %10s %10s %8s\n", "numbering", "edges", "of-total", "iters")
	hline(w, 54)
	variants := []struct {
		name string
		g    *graph.Graph
	}{
		{"as generated", g},
		{"BFS order", g.Relabel(analysis.BFSOrder(g, 0))},
		{"degree-descending", g.Relabel(analysis.DegreeOrder(g))},
	}
	for _, v := range variants {
		r, err := core.Extract(v.g, core.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %10d %9.1f%% %8d\n", v.name, r.NumChordalEdges(),
			100*float64(r.NumChordalEdges())/float64(g.NumEdges()), len(r.Iterations))
	}
	return nil
}

// ablationFamilies runs extraction on the broader input set with
// planted ground truth where available.
func ablationFamilies(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "\n== Ablation: broader input families ==")
	fmt.Fprintf(w, "%-28s %10s %10s %9s %8s %8s\n", "family", "edges", "chordal", "percent", "iters", "repair+")
	hline(w, 80)
	n := 1 << cfg.SmallScale
	type fam struct {
		name string
		g    *graph.Graph
	}
	ktree, planted, err := synth.KTreePlusNoise(n, 3, int64(n), cfg.Seed)
	if err != nil {
		return err
	}
	gnm, err := synth.GNM(n, int64(8*n), cfg.Seed)
	if err != nil {
		return err
	}
	ws, err := synth.WattsStrogatz(n, 4, 0.1, cfg.Seed)
	if err != nil {
		return err
	}
	geo, err := synth.RandomGeometric(n, synth.GeometricRadiusForDegree(n, 8), cfg.Seed)
	if err != nil {
		return err
	}
	families := []fam{
		{"GNM (E=8V)", gnm},
		{"WattsStrogatz k=4 b=0.1", ws},
		{"geometric avgdeg=8", geo},
		{fmt.Sprintf("3-tree + %d noise", n), ktree},
	}
	var ktreeKept int
	for _, f := range families {
		r, err := core.Extract(f.g, core.Options{})
		if err != nil {
			return err
		}
		rep, err := core.Extract(f.g, core.Options{RepairMaximality: true})
		if err != nil {
			return err
		}
		if !verify.IsChordal(r.ToGraph()) {
			return fmt.Errorf("ablation: %s output not chordal", f.name)
		}
		if f.g == ktree {
			ktreeKept = r.NumChordalEdges()
		}
		fmt.Fprintf(w, "%-28s %10d %10d %8.1f%% %8d %8d\n",
			f.name, f.g.NumEdges(), r.NumChordalEdges(),
			100*float64(r.NumChordalEdges())/float64(f.g.NumEdges()),
			len(r.Iterations), rep.RepairedEdges)
	}
	fmt.Fprintf(w, "(3-tree planted chordal edges: %d — extraction kept %.0f%% of the plant's size)\n",
		planted, 100*float64(ktreeKept)/float64(planted))
	return nil
}
