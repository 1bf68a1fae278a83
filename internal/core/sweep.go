package core

import (
	"cmp"
	"context"
	"slices"

	"chordal/internal/graph"
)

// sweepCheck is how many parents the sweep processes between two
// looks at its context.
const sweepCheck = 4096

// passTrace accumulates the counts of one frontier pass. queued is a
// difference: |Q1| of pass p is the sum of queued over passes 1..p.
type passTrace struct {
	queued                 int
	tested, accepted, scan int64
}

// sweepEvent is one subset test, buffered until the sweep ends and
// replayed in the frontier's order.
type sweepEvent struct {
	time          uint64
	child, parent int32
	accepted      bool
}

// sweepExtract runs Algorithm 1 at one worker under the default
// configuration (dataflow schedule, Opt, ascending queue) as one
// ascending sweep over the parents. For x = 0..n-1 it tests each
// larger neighbor w against x, C[w] ⊆ C[x], and appends x to C[w] on
// success. C[x] is final when the sweep reaches x, because every
// smaller neighbor of x has been swept, and each w meets its parents in
// ascending order: the tests and their outcomes are those of the
// frontier's passes, whose edge set does not depend on the schedule.
// The chordal sets use the frontier's layout, one slot per smaller
// neighbor.
//
// The sweep also rebuilds the one-worker frontier's iteration trace.
// A time packs a frontier event as pass<<32 | pos+1: the 1-based pass
// and the parent whose visit ran the test, its activation position.
// Times order as the frontier runs its visits. at[v] holds the time of
// v's latest test, 0 before the first; a vertex with no smaller
// neighbor is final before any arrival, at time 1. At x:
//
//   - A child w waits when at[w] < at[x]: it reached x, its next lowest
//     parent, before C[x] was final (at[w] = 0 is its first arrival, at
//     the initial queue). The frontier queued x at that arrival, and x
//     enters Q1 at the next pass. Any other child reached x after x
//     was final and chained through it at once, at time at[w].
//   - If any child waits, x is visited in pass P = max(pass(at[x]),
//     pass(first waiting arrival) + 1): at the pass it became ready,
//     when it is queued by then (the walk has not passed x), or else at
//     the first pass after it was queued. A waiting child that arrived
//     during pass P itself set x's Q2 bit again, so x is queued and
//     visited a second time in P+1; that visit scans and tests nothing.
//   - Waiting children are tested at (P, x). Every test stores its time
//     in at[w] and counts in pass(at[w]); each visit scans deg(x).
//
// Waiting arrivals precede at[x], so P is pass(at[x]) unless they all
// arrived in that pass, and then it is one more. The sweep tests x's
// children in one loop at the first guess and moves the waiting
// children's times afterwards when the guess was one pass short.
//
// ctx is checked on entry and every sweepCheck parents. OnEvent and
// OnIteration are called after the sweep: the tests sorted by (pass,
// activation position, child, parent), the frontier's one-worker order,
// with each pass's statistics after its tests. The statistics carry no
// Duration, because the sweep has no per-iteration wall time.
func sweepExtract(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	off := make([]int64, n+1)
	for v := range n {
		// Sorted: smaller neighbors form a prefix. A linear scan costs
		// O(E) in all and beats a binary search on short rows.
		nb := g.Neighbors(int32(v))
		k := 0
		for k < len(nb) && nb[k] < int32(v) {
			k++
		}
		off[v+1] = off[v] + int64(k)
	}
	data := make([]int32, off[n])
	clen := make([]int32, n)
	at := make([]uint64, n)
	passes := make([]passTrace, 2)
	var events []sweepEvent

	for x := range n {
		if x%sweepCheck == sweepCheck-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		nb := g.Neighbors(int32(x))
		kids := nb[off[x+1]-off[x]:]
		if len(kids) == 0 {
			continue
		}
		final := max(at[x], 1)
		p := final >> 32
		visit := p<<32 | uint64(x+1)
		first, last := ^uint64(0), uint64(0) // waiting arrivals
		var waitTested, waitAccepted int64
		cx := data[off[x] : off[x]+int64(clen[x])]
		mark := len(events)
		for _, w := range kids {
			t := at[w]
			lw := clen[w]
			accepted := subsetSorted(data[off[w]:off[w]+int64(lw)], cx)
			if accepted {
				data[off[w]+int64(lw)] = int32(x)
				clen[w] = lw + 1
			}
			if t < final {
				first, last = min(first, t), max(last, t)
				t = visit
				at[w] = t
				waitTested++
				if accepted {
					waitAccepted++
				}
			} else {
				pt := &passes[t>>32]
				pt.tested++
				if accepted {
					pt.accepted++
				}
			}
			if opts.OnEvent != nil {
				events = append(events, sweepEvent{t, w, int32(x), accepted})
			}
		}
		if first > last {
			continue // no child waits, so x is never queued
		}
		if first>>32 == p {
			// Only the waiting children and their events carry the
			// time of x's visit.
			moved := visit + 1<<32
			for _, w := range kids {
				if at[w] == visit {
					at[w] = moved
				}
			}
			for i := mark; i < len(events); i++ {
				if events[i].time == visit {
					events[i].time = moved
				}
			}
			p++
		}
		for uint64(len(passes)) < p+3 {
			passes = append(passes, passTrace{})
		}
		passes[p].tested += waitTested
		passes[p].accepted += waitAccepted
		passes[p].scan += int64(len(nb))
		passes[first>>32+1].queued++
		passes[p+1].queued--
		if last>>32 == p {
			passes[p+1].scan += int64(len(nb))
			passes[p+1].queued++
			passes[p+2].queued--
		}
	}

	res := &Result{NumVertices: n, csetOff: off, csetData: data, csetLen: clen}
	queued := 0
	for p := 1; p < len(passes); p++ {
		queued += passes[p].queued
		if queued == 0 {
			break
		}
		res.Iterations = append(res.Iterations, IterationStats{
			Index:         p,
			QueueSize:     queued,
			EdgesTested:   passes[p].tested,
			EdgesAccepted: passes[p].accepted,
			ScanWork:      passes[p].scan,
		})
	}
	if opts.OnEvent != nil {
		slices.SortFunc(events, func(a, b sweepEvent) int {
			return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.child, b.child), cmp.Compare(a.parent, b.parent))
		})
	}
	for _, it := range res.Iterations {
		for ; len(events) > 0 && int(events[0].time>>32) == it.Index; events = events[1:] {
			e := events[0]
			opts.OnEvent(it.Index, e.parent, e.child, e.accepted)
		}
		if opts.OnIteration != nil {
			opts.OnIteration(it)
		}
	}
	return res, nil
}
