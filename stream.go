package chordal

// This file threads the streaming mode through the library layer: a
// stream-mode Spec opens a long-lived session (OpenStream) that admits
// or rejects edge deltas online against a maintained chordal subgraph —
// the incremental.Maintainer kernel shared with the batch engines — and
// emits typed EventAdmit/EventDefer/EventRepair events as decisions
// land. Closing the session produces the canonical result: the spec's
// batch engine runs over the accumulated input edge set, so the final
// subgraph is independent of delta arrival order and byte-identical to
// a batch run of the same spec on the same graph (the online view is
// exact but greedy — it depends on arrival order, so it narrates the
// stream rather than defining the artifact; see DESIGN.md §13).

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
	// delta, repair-pass summaries, and the Close-time extract/verify
	// stage events.
	Observer Observer
}

// StreamEngine is implemented by engines that can run as a streaming
// session. The batch Extract and the session share one admission
// kernel (internal/incremental), so an engine opts in by describing how
// to seed, grow, and finalize a session — not by reimplementing
// admission.
type StreamEngine interface {
	Engine
	// OpenStream starts a session with the engine's declarative
	// parameters and the runtime session config.
	OpenStream(ctx context.Context, cfg EngineConfig, sc StreamConfig) (StreamSession, error)
}

// StreamSession is the engine-level state of one streaming run: the
// maintained chordal subgraph plus whatever the engine needs to
// finalize. Sessions are single-owner; the Stream wrapper serializes
// access.
type StreamSession interface {
	// Admit applies one edge delta to the maintained subgraph.
	Admit(u, v int32) (bool, AdmitReason)
	// Repair retests deferred edges until a pass admits nothing,
	// returning the edges admitted (in admission order).
	Repair(ctx context.Context) ([]Edge, error)
	// Edges returns the maintained subgraph's edges with U < V in
	// (U, V) order — the online view, not the canonical result.
	Edges() []Edge
	// Vertices is the current universe size; EdgeCount and
	// DeferredCount size the maintained subgraph and the repair queue.
	Vertices() int
	EdgeCount() int
	DeferredCount() int
	// Finalize reconstructs the accumulated input graph (every distinct
	// valid delta) and runs the engine's batch extraction over it,
	// returning the input and the canonical engine result.
	Finalize(ctx context.Context) (*Graph, *EngineResult, error)
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
	eng, ok := LookupEngine(n.Engine)
	if !ok {
		return nil, fmt.Errorf("chordal: spec: unknown engine %q", n.Engine)
	}
	se, ok := eng.(StreamEngine)
	if !ok {
		return nil, fmt.Errorf("chordal: spec: engine %q does not support streaming", n.Engine)
	}
	ecfg := n.EngineConfig
	ecfg.Observer = cfg.Observer
	sess, err := se.OpenStream(ctx, ecfg, cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{spec: n, canonical: canon, cfg: cfg, sess: sess}, nil
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
	// batch engine run over Input, so it is independent of the order
	// deltas arrived in and byte-identical to a batch run of the same
	// spec on the same graph.
	Subgraph *Graph
	// Report is the machine-readable summary.
	Report StreamReport
}

// Stream is one live streaming session: a stream-mode Spec bound to an
// engine session, with event emission, repair cadence, and the
// Close-time canonical extraction. Safe for concurrent use; decisions
// are serialized in push order.
type Stream struct {
	mu        sync.Mutex
	spec      Spec
	canonical string
	cfg       StreamConfig
	sess      StreamSession
	seq       int64
	sincePush int
	stats     StreamStats
	closed    bool
	result    *StreamResult
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
	ok, reason := s.sess.Admit(u, v)
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
	admitted, err := s.sess.Repair(ctx)
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
	st.Deferred = int64(s.sess.DeferredCount())
	st.Vertices = s.sess.Vertices()
	st.SubgraphEdges = s.sess.EdgeCount()
	return st
}

// Maintained returns the online subgraph's edges (U < V, sorted) — the
// maintained view the admit/defer events narrate, distinct from the
// canonical result Close produces.
func (s *Stream) Maintained() []Edge {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.Edges()
}

// Close finalizes the session: a last repair pass when the spec enables
// repair (so the online event stream reaches its fixpoint), then the
// canonical extraction — the spec's batch engine over the accumulated
// input — and the spec's verify stage on its result. Close is
// idempotent: repeated calls return the first result.
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

	s.emit(newStageEvent("extract"))
	input, er, err := s.sess.Finalize(ctx)
	if err != nil {
		return nil, err
	}
	rep := StreamReport{
		Spec:      s.spec,
		Canonical: s.canonical,
		Stream:    stats,
	}
	rep.Input, rep.Extraction, rep.Tuning = summarize(s.spec.Engine, ComputeStats(input), er)
	if s.spec.Verify {
		s.emit(newStageEvent("verify"))
		_, v, err := verifyStage(ctx, input, er)
		if err != nil {
			return nil, err
		}
		rep.Verify = &v
		s.emit(newVerifyEvent(v))
	}

	s.result = &StreamResult{Input: input, Subgraph: er.Subgraph, Report: rep}
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

// parallelStreamSession is the parallel engine's streaming session: the
// shared admission kernel over a growable universe, finalized by the
// engine's own batch Extract.
type parallelStreamSession struct {
	cfg EngineConfig
	m   *incremental.Maintainer
	// used is the vertex universe the session reports and finalizes
	// with: the configured initial size, extended to the largest vertex
	// a delta actually named (the maintainer's capacity grows by
	// doubling and may overshoot; that overshoot is invisible here).
	used        int
	maxVertices int
}

// OpenStream implements StreamEngine: the session shares the engine's
// declarative parameters (repair, verify and worker width apply to the
// Close-time extraction).
func (parallelEngine) OpenStream(ctx context.Context, cfg EngineConfig, sc StreamConfig) (StreamSession, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	maxV := sc.MaxVertices
	if maxV <= 0 {
		maxV = DefaultMaxStreamVertices
	}
	if sc.Vertices < 0 {
		return nil, fmt.Errorf("chordal: stream: vertices %d must be >= 0", sc.Vertices)
	}
	if sc.Vertices > maxV {
		return nil, fmt.Errorf("chordal: stream: vertices %d exceeds the cap %d", sc.Vertices, maxV)
	}
	if _, err := cfg.coreOptions(); err != nil {
		return nil, err
	}
	capacity := max(sc.Vertices, 256)
	capacity = min(capacity, maxV)
	m := incremental.New(capacity)
	m.SetMaxDeferred(cfg.MaxDeferred)
	return &parallelStreamSession{
		cfg:         cfg,
		m:           m,
		used:        sc.Vertices,
		maxVertices: maxV,
	}, nil
}

// Admit implements StreamSession: grow the universe on demand (within
// the cap), then delegate to the shared kernel.
func (s *parallelStreamSession) Admit(u, v int32) (bool, AdmitReason) {
	if u < 0 || v < 0 || u == v {
		return false, AdmitInvalid
	}
	hi := int(max(u, v)) + 1
	if hi > s.maxVertices {
		return false, AdmitInvalid
	}
	if hi > s.m.Vertices() {
		s.m.Grow(min(max(2*s.m.Vertices(), hi), s.maxVertices))
	}
	if hi > s.used {
		s.used = hi
	}
	return s.m.Admit(u, v)
}

// Repair implements StreamSession.
func (s *parallelStreamSession) Repair(ctx context.Context) ([]Edge, error) {
	admitted, err := s.m.RepairContext(ctx)
	return convertEdges(admitted), err
}

// Edges implements StreamSession.
func (s *parallelStreamSession) Edges() []Edge { return convertEdges(s.m.EdgeList()) }

// Vertices implements StreamSession.
func (s *parallelStreamSession) Vertices() int { return s.used }

// EdgeCount implements StreamSession.
func (s *parallelStreamSession) EdgeCount() int { return s.m.EdgeCount() }

// DeferredCount implements StreamSession.
func (s *parallelStreamSession) DeferredCount() int { return s.m.DeferredCount() }

// Finalize implements StreamSession: every distinct valid delta is
// either in the maintained subgraph or still deferred, so their union
// reconstructs the accumulated input exactly; the engine's batch
// Extract over it is the canonical, arrival-order-independent result.
func (s *parallelStreamSession) Finalize(ctx context.Context) (*Graph, *EngineResult, error) {
	kept := s.m.EdgeList()
	deferred := s.m.DeferredEdges()
	us := make([]int32, 0, len(kept)+len(deferred))
	vs := make([]int32, 0, len(kept)+len(deferred))
	for _, e := range kept {
		us, vs = append(us, e.U), append(vs, e.V)
	}
	for _, e := range deferred {
		us, vs = append(us, e.U), append(vs, e.V)
	}
	g := graph.SubgraphFromEdgesWorkers(s.used, us, vs, s.cfg.Workers)
	er, err := parallelEngine{}.Extract(ctx, g, s.cfg)
	if err != nil {
		return nil, nil, err
	}
	return g, er, nil
}

// convertEdges maps the kernel's edge type onto the public one.
func convertEdges(in []incremental.Edge) []Edge {
	out := make([]Edge, len(in))
	for i, e := range in {
		out[i] = Edge{U: e.U, V: e.V}
	}
	return out
}
