package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// rootSpan names the span that covers one whole operation. It belongs
// to no layer: its self time is the benchmark's own glue between calls.
const rootSpan = "op"

// span is one timed call: its name ("layer.function"), the interval it
// covered, the span that caused it (-1 for an operation's root) and the
// operation it belongs to.
type span struct {
	op, id, parent int
	name           string
	start, end     time.Duration
}

// tracer keeps spans in memory for the length of a run. It is safe for
// concurrent use; the zero value is not usable, see newTracer.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

// newTracer returns an empty tracer whose times count from now.
func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp starts an operation and returns its id and root span id.
func (t *tracer) newOp(start time.Time) (op, root int) {
	t.mu.Lock()
	op = t.ops
	t.ops++
	t.mu.Unlock()
	return op, t.open(op, -1, rootSpan, start)
}

// open records the start of a span and returns its id.
func (t *tracer) open(op, parent int, name string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{op: op, id: id, parent: parent, name: name, start: start.Sub(t.epoch)})
	return id
}

// close records the end of span id.
func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id].end = end.Sub(t.epoch)
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(op, parent int, name string, start, end time.Time) {
	t.close(t.open(op, parent, name, start), end)
}

// call runs f inside a span.
func (t *tracer) call(op, parent int, name string, f func()) {
	id := t.open(op, parent, name, time.Now())
	f()
	t.close(id, time.Now())
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf returns the layer a span name belongs to: the part before the
// first dot, or "" for the root span.
func layerOf(name string) string {
	if name == rootSpan {
		return ""
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Overlapping children (concurrent calls) are
// merged first, so no instant is subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range children[s.id] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered := time.Duration(0)
		var cur [2]time.Duration
		for k, iv := range ivs {
			switch {
			case k == 0:
				cur = iv
			case iv[0] <= cur[1]:
				cur[1] = max(cur[1], iv[1])
			default:
				covered += cur[1] - cur[0]
				cur = iv
			}
		}
		if len(ivs) > 0 {
			covered += cur[1] - cur[0]
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// traceSummary condenses a run's spans: summed self time per span name
// and per layer, the summed wall time of the operations, and coverage —
// the share of that wall time spent in some layer's own code.
type traceSummary struct {
	ops     int
	opWall  time.Duration
	byName  map[string]time.Duration
	byLayer map[string]time.Duration
}

// coverage is summed layer self time over summed operation wall time.
func (s traceSummary) coverage() float64 {
	if s.opWall <= 0 {
		return 0
	}
	var t time.Duration
	for _, d := range s.byLayer {
		t += d
	}
	return float64(t) / float64(s.opWall)
}

// perOpMs is a span name's summed self time per operation, in ms.
func (s traceSummary) perOpMs(name string) float64 {
	if s.ops == 0 {
		return 0
	}
	return ms(s.byName[name]) / float64(s.ops)
}

// summarize computes the traceSummary of spans.
func summarize(spans []span) traceSummary {
	sum := traceSummary{
		byName:  make(map[string]time.Duration),
		byLayer: make(map[string]time.Duration),
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.parent < 0 {
			sum.ops++
			sum.opWall += s.end - s.start
			continue
		}
		sum.byName[s.name] += self[i]
		sum.byLayer[layerOf(s.name)] += self[i]
	}
	return sum
}

// writeSpans writes spans as CSV (op, id, parent, name, start and end in
// microseconds since the run began) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,start_us,end_us")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%.3f,%.3f\n", s.op, s.id, s.parent, s.name,
			float64(s.start.Nanoseconds())/1e3, float64(s.end.Nanoseconds())/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
