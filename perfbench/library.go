package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/quality"
	"chordal/internal/verify"
)

// maxAuditEdges mirrors Runner.Run's edge limit for the maximality
// audit, so the traced composition audits exactly when Run does.
const maxAuditEdges = 200000

var kernelWS = workload{
	name:  "kernel-ws",
	why:   "a ring-lattice small world forces hundreds of dependent Algorithm 1 iterations; the kernel (on one worker) and quality dominate",
	heavy: []string{"core", "quality"},
	light: []string{"source", "verify", "graph"},
	setup: func(cfg config) (bench, error) {
		n, k := 100000, 8
		if cfg.tiny {
			n, k = 300, 4
		}
		return newLibrary(cfg, chordal.Spec{
			Source: fmt.Sprintf("ws:%d:%d:0.1:%d", n, k, cfg.seed),
			Engine: chordal.EngineParallel,
			// One worker, as the service leases a default job: the kernel's
			// hundreds of per-iteration barriers make its two-worker time
			// swing by a factor of two on a shared two-CPU machine.
			EngineConfig: chordal.EngineConfig{Workers: 1},
			Verify:       true,
			Output:       filepath.Join(cfg.dir, "run.bin"),
		})
	},
}

var shardedKTree = workload{
	name:  "sharded-ktree",
	why:   "contiguous shards of a k-tree cut most edges, so border admission (shard into incremental) dominates and the kernel is light",
	heavy: []string{"shard"},
	light: []string{"core", "quality", "source"},
	setup: func(cfg config) (bench, error) {
		n, k := 800, 24
		if cfg.tiny {
			n, k = 200, 8
		}
		return newLibrary(cfg, chordal.Spec{
			Source:       fmt.Sprintf("ktree:%d:%d:%d", n, k, cfg.seed),
			Engine:       chordal.EngineSharded,
			EngineConfig: chordal.EngineConfig{Shards: 4},
			Verify:       true,
		})
	},
}

// library runs one spec in a closed loop with one caller: untraced
// operations are Runner.Run; traced ones compose the same public calls
// in Run's order and under its conditions.
type library struct {
	spec chordal.Spec
	src  chordal.Source
	eng  chordal.Engine
	dir  string
	// ref is the reference edge hash and refKept its retention.
	ref     uint64
	refKept float64
	// fileRef is the hash of the first untraced output file; every later
	// output file, traced or not, must match it byte for byte.
	fileRef uint64
	hasFile bool
}

// newLibrary prepares a library workload for spec.
func newLibrary(cfg config, spec chordal.Spec) (*library, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	src, err := chordal.ParseSource(n.Source)
	if err != nil {
		return nil, err
	}
	eng, ok := chordal.LookupEngine(n.Engine)
	if !ok {
		return nil, fmt.Errorf("engine %q not registered", n.Engine)
	}
	return &library{spec: n, src: src, eng: eng, dir: cfg.dir}, nil
}

// reference extracts once through the engine directly, at another
// worker count than the spec's — a different path from Runner.Run whose
// edge set the program promises is the same.
func (l *library) reference(ctx context.Context) error {
	g, err := l.src.Load()
	if err != nil {
		return err
	}
	cfg := l.spec.EngineConfig
	cfg.Workers = 1
	if l.spec.Workers == 1 {
		cfg.Workers = 0 // machine width
	}
	er, err := l.eng.Extract(ctx, g, cfg)
	if err != nil {
		return err
	}
	if !isChordal(er.Subgraph) {
		return fmt.Errorf("reference subgraph of %s is not chordal", l.spec.Source)
	}
	l.ref = edgeHash(er.Subgraph)
	l.refKept = 100 * float64(er.Subgraph.NumEdges()) / float64(g.NumEdges())
	return nil
}

func (l *library) close() {}

// libCounters accumulates the traced operations' per-layer counters.
type libCounters struct {
	ops                                   int
	iterations, tested, accepted, scan    float64
	borderEdges, bridges, admitted, cut   float64
	fillComputed, writeBytes, unaccounted float64
	untraced                              int
}

func (l *library) measure(ctx context.Context, deadline time.Time, tr *tracer, mem *memSampler) (*result, error) {
	res := &result{keptPct: l.refKept}
	var c libCounters
	start := time.Now()
	for i := 0; i < minOps(tr) || time.Now().Before(deadline); i++ {
		res.tally.attempted++
		traced := tr != nil && i%2 == 1
		var err error
		if traced {
			var d time.Duration
			d, err = l.tracedOp(ctx, tr, &c)
			if err == nil {
				res.tracedMs = append(res.tracedMs, ms(d))
			}
		} else {
			var d, un time.Duration
			d, un, err = l.untracedOp(ctx)
			if err == nil {
				res.opMs = append(res.opMs, ms(d))
				c.unaccounted += ms(un)
				c.untraced++
			}
		}
		res.peakMB = append(res.peakMB, mem.take())
		switch {
		case errors.Is(err, errCheck):
			res.tally.checkFailed++
		case err != nil:
			return nil, err
		}
	}
	res.window = time.Since(start)
	if tr != nil {
		res.layer = c.metrics()
	}
	return res, nil
}

// metrics turns the accumulated counters into per-operation values.
func (c *libCounters) metrics() map[string]float64 {
	m := map[string]float64{}
	if c.untraced > 0 {
		m["chordal.unaccounted_ms"] = c.unaccounted / float64(c.untraced)
	}
	if c.ops == 0 {
		return m
	}
	n := float64(c.ops)
	m["core.iterations"] = c.iterations / n
	m["core.edges_tested"] = c.tested / n
	m["core.scan_work"] = c.scan / n
	if c.tested > 0 {
		m["core.accept_ratio"] = c.accepted / c.tested
	}
	m["shard.border_edges"] = c.borderEdges / n
	m["shard.border_bridges"] = c.bridges / n
	m["shard.border_admitted"] = c.admitted / n
	if tests := c.borderEdges - c.bridges; tests > 0 {
		m["shard.border_admit_ratio"] = c.admitted / tests
	}
	m["shard.edge_cut_pct"] = c.cut / n
	m["quality.fill_computed_share"] = c.fillComputed / n
	m["graph.write_bytes"] = c.writeBytes / n
	return m
}

// untracedOp is one Runner.Run, timed as a whole. It returns the wall
// time and the part of it no stage timing covers.
func (l *library) untracedOp(ctx context.Context) (time.Duration, time.Duration, error) {
	start := time.Now()
	res, err := chordal.Runner{}.Run(ctx, l.spec)
	wall := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	staged := time.Duration(0)
	for _, st := range res.Timings {
		staged += st.Duration
	}
	if !res.Verified || !res.ChordalOK || edgeHash(res.Subgraph) != l.ref {
		return 0, 0, errCheck
	}
	if err := l.checkFile(l.spec.Output); err != nil {
		return 0, 0, err
	}
	return wall, wall - staged, nil
}

// checkFile compares an output file's bytes with the first untraced
// output's.
func (l *library) checkFile(path string) error {
	if path == "" {
		return nil
	}
	h, _, err := fileHash(path)
	if err != nil {
		return err
	}
	if !l.hasFile {
		l.fileRef, l.hasFile = h, true
		return nil
	}
	if h != l.fileRef {
		return errCheck
	}
	return nil
}

// tracedOp composes Runner.Run's calls — acquire, input statistics,
// extract, verify (the shard engine's own check stands in for the
// chordality pass, as in Run; the audit runs only under Run's edge
// limit), quality, write — with a span around each.
func (l *library) tracedOp(ctx context.Context, tr *tracer, c *libCounters) (time.Duration, error) {
	start := time.Now()
	op, root := tr.newOp(start)
	var g *graph.Graph
	var err error
	tr.call(op, root, "source.acquire", func() { g, err = l.src.LoadWorkers(l.spec.Workers) })
	if err != nil {
		return 0, err
	}
	tr.call(op, root, "chordal.stats", func() { chordal.ComputeStats(g) })
	extract := "core.extract"
	if l.spec.Engine == chordal.EngineSharded {
		extract = "shard.extract"
	}
	var er *chordal.EngineResult
	tr.call(op, root, extract, func() { er, err = l.eng.Extract(ctx, g, l.spec.EngineConfig) })
	if err != nil {
		return 0, err
	}
	sub := er.Subgraph
	chordalOK := false
	if er.Shard != nil {
		chordalOK = er.Shard.Chordal
	} else {
		tr.call(op, root, "verify.chordal", func() { chordalOK = verify.IsChordal(sub) })
	}
	if chordalOK && g.NumEdges() <= maxAuditEdges {
		tr.call(op, root, "verify.audit", func() { verify.AuditMaximality(g, sub, 10) })
	}
	var q *quality.Metrics
	if chordalOK {
		tr.call(op, root, "quality.compute", func() { q, _ = quality.Compute(g, sub, quality.DefaultLimits()) })
	}
	out := ""
	if l.spec.Output != "" {
		out = filepath.Join(l.dir, "traced.bin")
		tr.call(op, root, "graph.write", func() { err = graph.SaveFile(out, sub) })
		if err != nil {
			return 0, err
		}
	}
	end := time.Now()
	tr.close(root, end)

	if !chordalOK || edgeHash(sub) != l.ref {
		return 0, errCheck
	}
	if out != "" {
		if !l.hasFile {
			return 0, fmt.Errorf("traced output has no untraced output to compare with")
		}
		h, size, err := fileHash(out)
		if err != nil {
			return 0, err
		}
		if h != l.fileRef {
			return 0, errCheck
		}
		c.writeBytes += float64(size)
	}
	c.ops++
	if r := er.Extraction; r != nil {
		c.iterations += float64(len(r.Iterations))
		c.tested += float64(r.TotalTested())
		c.accepted += float64(r.TotalAccepted())
		for _, it := range r.Iterations {
			c.scan += float64(it.ScanWork)
		}
	}
	if sh := er.Shard; sh != nil {
		for _, it := range sh.PerShardIterations {
			c.iterations += float64(it)
		}
		c.borderEdges += float64(sh.BorderTotal)
		c.bridges += float64(sh.BorderBridges)
		c.admitted += float64(sh.BorderAdmitted)
		c.cut += sh.EdgeCutPct
	}
	if q != nil && q.FillComputed {
		c.fillComputed++
	}
	return end.Sub(start), nil
}
