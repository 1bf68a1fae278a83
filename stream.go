package chordal

// This file threads the streaming mode through the library layer: a
// stream-mode Spec opens a long-lived session (OpenStream) that admits
// or rejects edge deltas online against a maintained chordal subgraph —
// the incremental.Maintainer kernel shared with the batch engines — and
// emits typed EventAdmit/EventDefer/EventRepair events as decisions
// land. Closing the session produces the canonical result: Runner.Run
// of the spec's batch twin over the accumulated input edge set, so the
// final subgraph and its report are independent of delta arrival order
// and equal to a batch run of the same spec on the same graph (the
// online view is exact but greedy — it depends on arrival order, so it
// narrates the stream rather than defining the artifact; see DESIGN.md
// §13).

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"chordal/internal/graph"
	"chordal/internal/incremental"
)

// Spec execution modes. Batch is the zero value and normalizes to the
// empty string, keeping pre-existing specs and canonical keys
// byte-identical; only "stream" is ever spelled out.
const (
	// ModeBatch runs the spec end to end over a fully acquired input
	// (Spec.Run).
	ModeBatch = "batch"
	// ModeStream opens a long-lived session fed edge deltas
	// (OpenStream); Close produces the canonical batch result over the
	// accumulated edges.
	ModeStream = "stream"
)

// AdmitReason explains one stream admission decision; the values are
// the incremental package's stable wire strings.
type AdmitReason = incremental.Reason

// The admission rulings a session can report.
const (
	// AdmitAccepted: the exact separator criterion accepted the edge.
	AdmitAccepted = incremental.ReasonAdmitted
	// AdmitBridge: the endpoints were in different components (fast
	// path; a bridge lies on no cycle).
	AdmitBridge = incremental.ReasonBridge
	// AdmitRepaired: a previously deferred edge admitted by a repair
	// pass.
	AdmitRepaired = incremental.ReasonRepaired
	// AdmitPresent: the edge is already in the maintained subgraph.
	AdmitPresent = incremental.ReasonPresent
	// AdmitDeferred: rejected for now and queued for repair.
	AdmitDeferred = incremental.ReasonDeferred
	// AdmitInvalid: a self loop, a negative endpoint, or an endpoint
	// beyond the session's vertex cap.
	AdmitInvalid = incremental.ReasonInvalid
	// AdmitOverflow: rejected while the deferred queue was at the
	// spec's MaxDeferred bound — dropped, never retested by repair.
	AdmitOverflow = incremental.ReasonOverflow
)

// DefaultMaxStreamVertices bounds a session's vertex universe when
// StreamConfig.MaxVertices is zero: the universe grows on demand as
// deltas name new vertices, and the cap keeps one hostile delta (say
// u = 2^31-2) from allocating the whole id space.
const DefaultMaxStreamVertices = 1 << 24

// StreamConfig carries the runtime parameters of one session. None of
// them is part of the spec's identity: they size and pace the session
// without changing what the canonical result is.
type StreamConfig struct {
	// Vertices is the initial vertex universe (ids 0..Vertices-1). The
	// universe grows on demand beyond it; set it when the final vertex
	// count matters (isolated vertices exist only if the universe names
	// them).
	Vertices int
	// MaxVertices caps on-demand growth; 0 means
	// DefaultMaxStreamVertices. Deltas beyond the cap are ruled invalid.
	MaxVertices int
	// RepairEvery runs a repair pass automatically after this many
	// pushed deltas; 0 repairs only on explicit Repair calls and at
	// Close (when the spec enables repair).
	RepairEvery int
	// Observer receives the session's event stream: admit/defer per
	// delta, repair-pass summaries, and the Close-time run's events
	// (extract and verify stage begin/end, iterations, verify outcome).
	Observer Observer
}

// OpenStream opens a streaming session for a stream-mode spec. The
// spec is normalized and validated exactly as for Run; its canonical
// key is the session's identity across the library, the CLI, and the
// service.
func OpenStream(ctx context.Context, s Spec, cfg StreamConfig) (*Stream, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	if n.Mode != ModeStream {
		return nil, fmt.Errorf("chordal: OpenStream needs a stream-mode spec (set Mode: %q)", ModeStream)
	}
	canon, err := n.Canonical()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	maxV := cfg.MaxVertices
	if maxV <= 0 {
		maxV = DefaultMaxStreamVertices
	}
	if cfg.Vertices < 0 {
		return nil, fmt.Errorf("chordal: stream: vertices %d must be >= 0", cfg.Vertices)
	}
	if cfg.Vertices > maxV {
		return nil, fmt.Errorf("chordal: stream: vertices %d exceeds the cap %d", cfg.Vertices, maxV)
	}
	m := incremental.New(min(max(cfg.Vertices, 256), maxV))
	m.SetMaxDeferred(n.MaxDeferred)
	return &Stream{spec: n, canonical: canon, cfg: cfg, m: m, used: cfg.Vertices, maxVertices: maxV}, nil
}

// StreamStats snapshots a session's counters. Admitted counts deltas
// accepted at push time; Repaired counts deferred edges later admitted
// by repair passes; Deferred is the queue still awaiting one.
type StreamStats struct {
	// Pushed counts every delta received, valid or not.
	Pushed int64 `json:"pushed"`
	// Admitted counts deltas accepted online at push time (reasons
	// admitted and bridge).
	Admitted int64 `json:"admitted"`
	// Repaired counts deferred edges admitted by repair passes;
	// Repairs counts the passes.
	Repaired int64 `json:"repaired"`
	Repairs  int64 `json:"repairs"`
	// Deferred is the current repair-queue length; Duplicates and
	// Invalid count deltas ruled present / invalid.
	Deferred   int64 `json:"deferred"`
	Duplicates int64 `json:"duplicates"`
	Invalid    int64 `json:"invalid"`
	// Overflowed counts deltas dropped because the deferred queue was
	// at the spec's MaxDeferred bound (0 when unbounded).
	Overflowed int64 `json:"overflowed,omitempty"`
	// Vertices is the session's vertex universe; SubgraphEdges the
	// maintained (online) chordal edge count.
	Vertices      int `json:"vertices"`
	SubgraphEdges int `json:"subgraphEdges"`
}

// StreamResult is the outcome of closing a session: the accumulated
// input graph, the canonical final subgraph, and the JSON-ready report.
type StreamResult struct {
	// Input is the graph accumulated from every distinct valid delta.
	Input *Graph
	// Subgraph is the canonical final chordal subgraph — the spec's
	// batch twin run over Input, so it is independent of the order
	// deltas arrived in and byte-identical to a batch run of the same
	// spec on the same graph.
	Subgraph *Graph
	// Report is the machine-readable summary.
	Report StreamReport
}

// Stream is one live streaming session: a stream-mode Spec bound to
// the shared admission kernel, with event emission, repair cadence,
// and the Close-time canonical run. Safe for concurrent use; decisions
// are serialized in push order.
type Stream struct {
	mu        sync.Mutex
	spec      Spec
	canonical string
	cfg       StreamConfig
	m         *incremental.Maintainer
	// used is the vertex universe the session reports and closes with:
	// the configured initial size, extended to the largest vertex a
	// delta actually named (the maintainer's capacity grows by doubling
	// and may overshoot; that overshoot is invisible here).
	used        int
	maxVertices int
	seq         int64
	sincePush   int
	stats       StreamStats
	closed      bool
	result      *StreamResult
}

// Spec returns the session's normalized spec.
func (s *Stream) Spec() Spec { return s.spec }

// Canonical returns the session's identity — the stream-mode spec's
// canonical key, shared with the CLI and the service.
func (s *Stream) Canonical() string { return s.canonical }

// emit delivers one event to the session observer, if any.
func (s *Stream) emit(ev Event) {
	if s.cfg.Observer != nil {
		s.cfg.Observer(ev)
	}
}

// ErrStreamClosed rejects operations on a closed session.
var ErrStreamClosed = fmt.Errorf("chordal: stream session is closed")

// Push applies one edge delta, returning the decision (also emitted as
// an admit/defer event). When the session's RepairEvery cadence is due,
// the repair pass runs before Push returns, so its re-admissions are
// already reflected in Stats.
func (s *Stream) Push(ctx context.Context, u, v int32) (StreamDelta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return StreamDelta{}, ErrStreamClosed
	}
	// Grow the universe on demand, within the cap, before the kernel
	// rules on the delta.
	ok, reason := false, AdmitInvalid
	if hi := int(max(u, v)) + 1; u >= 0 && v >= 0 && u != v && hi <= s.maxVertices {
		if hi > s.m.Vertices() {
			s.m.Grow(min(max(2*s.m.Vertices(), hi), s.maxVertices))
		}
		s.used = max(s.used, hi)
		ok, reason = s.m.Admit(u, v)
	}
	s.seq++
	s.stats.Pushed++
	switch reason {
	case AdmitAccepted, AdmitBridge:
		s.stats.Admitted++
	case AdmitPresent:
		s.stats.Duplicates++
	case AdmitInvalid:
		s.stats.Invalid++
	case AdmitOverflow:
		s.stats.Overflowed++
	}
	d := StreamDelta{Seq: s.seq, U: u, V: v, Accepted: ok, Reason: string(reason)}
	s.emit(newDeltaEvent(d))
	if s.cfg.RepairEvery > 0 {
		if s.sincePush++; s.sincePush >= s.cfg.RepairEvery {
			if _, err := s.repairLocked(ctx); err != nil {
				return d, err
			}
		}
	}
	return d, nil
}

// Repair retests the deferred queue until a pass admits nothing,
// emitting an admit event (reason "repaired") per re-admitted edge and
// one repair summary event. It returns how many edges were admitted.
func (s *Stream) Repair(ctx context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStreamClosed
	}
	return s.repairLocked(ctx)
}

// repairLocked is Repair with s.mu held.
func (s *Stream) repairLocked(ctx context.Context) (int, error) {
	s.sincePush = 0
	admitted, err := s.m.RepairContext(ctx)
	s.stats.Repairs++
	s.stats.Repaired += int64(len(admitted))
	for _, e := range admitted {
		s.seq++
		s.emit(newDeltaEvent(StreamDelta{
			Seq: s.seq, U: e.U, V: e.V, Accepted: true, Reason: string(AdmitRepaired),
		}))
	}
	s.emit(newRepairEvent(len(admitted)))
	return len(admitted), err
}

// Stats snapshots the session counters.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked builds the counter snapshot; callers hold s.mu.
func (s *Stream) statsLocked() StreamStats {
	st := s.stats
	st.Deferred = int64(s.m.DeferredCount())
	st.Vertices = s.used
	st.SubgraphEdges = s.m.EdgeCount()
	return st
}

// Maintained returns the online subgraph's edges (U < V, sorted) — the
// maintained view the admit/defer events narrate, distinct from the
// canonical result Close produces.
func (s *Stream) Maintained() []Edge {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.EdgeList()
}

// Close finalizes the session: a last repair pass when the spec enables
// repair (so the online event stream reaches its fixpoint), then the
// canonical run — Runner.Run of the spec's batch twin (Mode and
// MaxDeferred cleared) over the accumulated input, so the report
// carries the same extraction, verify outcome, quality and stage
// timings as the batch run, and the observer sees the same stage
// events. Close is idempotent: repeated calls return the first result.
func (s *Stream) Close(ctx context.Context) (*StreamResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if s.result == nil {
			return nil, ErrStreamClosed
		}
		return s.result, nil
	}
	if s.spec.Repair {
		if _, err := s.repairLocked(ctx); err != nil {
			return nil, err
		}
	}
	stats := s.statsLocked()

	// Every distinct valid delta is either in the maintained subgraph or
	// still deferred, so their union reconstructs the accumulated input
	// exactly.
	kept, deferred := s.m.EdgeList(), s.m.DeferredEdges()
	us := make([]int32, 0, len(kept)+len(deferred))
	vs := make([]int32, 0, len(kept)+len(deferred))
	for _, part := range [][]Edge{kept, deferred} {
		for _, e := range part {
			us, vs = append(us, e.U), append(vs, e.V)
		}
	}
	input := graph.SubgraphFromEdgesWorkers(s.used, us, vs, s.spec.Workers)
	batch := s.spec
	batch.Mode, batch.MaxDeferred = "", 0
	res, err := Runner{Input: input, Observer: s.cfg.Observer}.Run(ctx, batch)
	if err != nil {
		return nil, err
	}
	run, err := Report(s.spec, res)
	if err != nil {
		return nil, err
	}
	s.result = &StreamResult{Input: input, Subgraph: res.Subgraph, Report: StreamReport{RunReport: run, Stream: stats}}
	s.closed = true
	return s.result, nil
}

// EdgeDelta is one streamed edge-insertion request, the unit of the
// NDJSON wire format shared by `chordal -stream` and the service's
// POST /v1/streams/{id}/edges.
type EdgeDelta struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
}

// ParseEdgeDelta parses one delta line: a JSON object {"u":1,"v":2} or
// two whitespace-separated decimal vertex ids ("1 2"). Callers skip
// blank and #-comment lines themselves (the CLI and service both do).
func ParseEdgeDelta(line string) (EdgeDelta, error) {
	s := strings.TrimSpace(line)
	if s == "" {
		return EdgeDelta{}, fmt.Errorf("chordal: empty edge delta")
	}
	if s[0] == '{' {
		var d EdgeDelta
		if err := json.Unmarshal([]byte(s), &d); err != nil {
			return EdgeDelta{}, fmt.Errorf("chordal: bad edge delta %q: %w", s, err)
		}
		return d, nil
	}
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return EdgeDelta{}, fmt.Errorf("chordal: bad edge delta %q (want {\"u\":..,\"v\":..} or \"u v\")", s)
	}
	u, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return EdgeDelta{}, fmt.Errorf("chordal: bad edge delta %q: %w", s, err)
	}
	v, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return EdgeDelta{}, fmt.Errorf("chordal: bad edge delta %q: %w", s, err)
	}
	return EdgeDelta{U: int32(u), V: int32(v)}, nil
}
