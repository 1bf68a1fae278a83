package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"chordal"
	"chordal/internal/graph"
)

// This file adds streaming sessions to the service: a POST /v1/streams
// opens a long-lived chordal.Stream keyed by the same canonical spec
// identity as jobs, edge deltas arrive as NDJSON POSTs, admission
// events fan out over SSE, and closing the session returns the
// StreamReport and makes the canonical subgraph downloadable.
//
//	POST   /v1/streams              open a session: JSON {options,
//	                                vertices, maxVertices, repairEvery}
//	POST   /v1/streams/{id}/edges   push NDJSON edge deltas ({"u":..,
//	                                "v":..} or "u v" per line); returns
//	                                per-line decisions + counters
//	POST   /v1/streams/{id}/close   finalize: canonical extraction over
//	                                the accumulated input; returns the
//	                                StreamReport (idempotent)
//	GET    /v1/streams/{id}         status + counters
//	GET    /v1/streams/{id}/events  SSE: admit/defer/repair events,
//	                                replayed from the start then live
//	GET    /v1/streams/{id}/result  the canonical subgraph of a closed
//	                                session (?format=edges|bin|mtx)
//	DELETE /v1/streams/{id}         abandon the session
//
// Sessions take no job slot: deltas are admitted on the request
// goroutine (one union-find probe or one separator search each), and
// only Close runs an extraction kernel, at no more than the narrowest
// slot width, so a Close runs no wider than a job. A session's vertex
// universe is capped at chordal.DefaultMaxStreamVertices; a client may
// lower the cap but not raise it. Idle open sessions and terminal ones
// are garbage collected on the job GC cadence.

// Stream session states.
const (
	StreamOpen     = "open"
	StreamClosed   = "closed"
	StreamCanceled = "canceled"
)

// StreamOpenRequest is the JSON body of POST /v1/streams. Options is
// the jobs' options object (engine, repair, verify, ...); Mode is
// implied. Vertices, MaxVertices and RepairEvery map onto
// chordal.StreamConfig and are not part of the session's identity;
// MaxVertices may lower the server's cap of
// chordal.DefaultMaxStreamVertices but not raise it.
type StreamOpenRequest struct {
	Options     JobOptions `json:"options"`
	Vertices    int        `json:"vertices,omitempty"`
	MaxVertices int        `json:"maxVertices,omitempty"`
	RepairEvery int        `json:"repairEvery,omitempty"`
}

// StreamStatus is the JSON view of a session.
type StreamStatus struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Canonical string    `json:"canonical"`
	Created   time.Time `json:"created"`
	// Stats snapshots the session counters (pushed, admitted, deferred,
	// ...); frozen at the Close-time values once the session is closed.
	Stats chordal.StreamStats `json:"stats"`
	// Report is the full close report of a closed session.
	Report *chordal.StreamReport `json:"report,omitempty"`
}

// DeltaBatchResult is the response of POST /v1/streams/{id}/edges: how
// many lines were applied and the decision of each.
type DeltaBatchResult struct {
	Applied   int                   `json:"applied"`
	Decisions []chordal.StreamDelta `json:"decisions"`
	Stats     chordal.StreamStats   `json:"stats"`
}

// streamSession is one live session in the store. Lock ordering: the
// chordal.Stream has its own mutex and emits observer events while
// holding it, and the observer appends under mu — so methods holding mu
// must never call into the Stream.
type streamSession struct {
	id      string
	created time.Time
	stream  *chordal.Stream

	mu         sync.Mutex
	state      string
	lastActive time.Time
	finished   time.Time
	report     *chordal.StreamReport
	subgraph   *graph.Graph
	log        eventLog
}

// appendEvent appends one SSE event and wakes subscribers.
func (ss *streamSession) appendEvent(name string, data any) {
	ss.mu.Lock()
	ss.log.add(name, data)
	ss.mu.Unlock()
}

// touch stamps the session as recently active.
func (ss *streamSession) touch(now time.Time) {
	ss.mu.Lock()
	ss.lastActive = now
	ss.mu.Unlock()
}

// eventsSince makes a session an eventSource: the log after cursor,
// and whether the session is closed or canceled.
func (ss *streamSession) eventsSince(cursor int) (evs []sseEvent, terminal bool, changed <-chan struct{}) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	evs, changed = ss.log.since(cursor)
	return evs, ss.state != StreamOpen, changed
}

// status snapshots the session's JSON view. It reads the Stream's
// counters before taking ss.mu (see the lock-ordering note on the
// type).
func (ss *streamSession) status() StreamStatus {
	stats := ss.stream.Stats()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := StreamStatus{
		ID:        ss.id,
		State:     ss.state,
		Canonical: ss.stream.Canonical(),
		Created:   ss.created,
		Stats:     stats,
		Report:    ss.report,
	}
	if ss.report != nil {
		st.Stats = ss.report.Stream
	}
	return st
}

// expired is the GC predicate: a terminal session aged past the TTL,
// or an open one idle past it (an abandoned session must not pin its
// maintained subgraph forever).
func (ss *streamSession) expired(cutoff time.Time) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != StreamOpen {
		return ss.finished.Before(cutoff)
	}
	return ss.lastActive.Before(cutoff)
}

// handleStreamOpen serves POST /v1/streams. Sessions run outside the
// scheduler's slot queue (deltas are admitted on request goroutines),
// but opening one still passes the tenant's rate limit so a flood of
// stream opens cannot sidestep admission control — a limited tenant
// gets 429 + Retry-After here exactly as on job submission.
func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	var req StreamOpenRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if err := s.sched.AdmitSession(tenantFromRequest(r)); err != nil {
		writeSubmitError(w, err)
		return
	}
	spec := req.Options.rawSpec("")
	spec.Mode = chordal.ModeStream
	if spec.Workers <= 0 || spec.Workers > s.minWidth {
		spec.Workers = s.minWidth
	}
	maxVertices := chordal.DefaultMaxStreamVertices
	if req.MaxVertices > 0 {
		maxVertices = min(req.MaxVertices, maxVertices)
	}
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, errShuttingDown)
		return
	}
	s.streamSeq++
	id := fmt.Sprintf("s%06d", s.streamSeq)
	ss := &streamSession{
		id:         id,
		created:    now,
		state:      StreamOpen,
		lastActive: now,
	}
	// OpenStream validates the spec (engine capability, relabel/output
	// conflicts) and builds the session; the observer feeds the SSE log.
	st, err := chordal.OpenStream(s.baseCtx, spec, chordal.StreamConfig{
		Vertices:    req.Vertices,
		MaxVertices: maxVertices,
		RepairEvery: req.RepairEvery,
		Observer: func(ev chordal.Event) {
			ss.appendEvent(string(ev.Type), ev)
		},
	})
	if err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ss.stream = st
	s.streams[id] = ss
	s.mu.Unlock()
	w.Header().Set("Location", "/v1/streams/"+id)
	writeJSON(w, http.StatusCreated, ss.status())
}

// lookupStream finds a session by id.
func (s *Server) lookupStream(id string) (*streamSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.streams[id]
	return ss, ok
}

// streamState reads the session state.
func (ss *streamSession) getState() string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state
}

// handleStreamEdges serves POST /v1/streams/{id}/edges: NDJSON deltas,
// one decision per valid line. A malformed line stops the batch with a
// 400 that reports how many earlier lines were applied (those stay
// applied — deltas are not transactional).
func (s *Server) handleStreamEdges(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such stream"))
		return
	}
	if ss.getState() != StreamOpen {
		httpError(w, http.StatusConflict, fmt.Errorf("service: stream %s is %s", ss.id, ss.getState()))
		return
	}
	ss.touch(time.Now())
	var res DeltaBatchResult
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, err := chordal.ParseEdgeDelta(line)
		if err != nil {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("service: %w (after %d applied deltas)", err, res.Applied))
			return
		}
		dec, err := ss.stream.Push(r.Context(), d.U, d.V)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		res.Applied++
		res.Decisions = append(res.Decisions, dec)
	}
	if err := sc.Err(); err != nil {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("service: reading deltas: %w (after %d applied deltas)", err, res.Applied))
		return
	}
	res.Stats = ss.stream.Stats()
	writeJSON(w, http.StatusOK, res)
}

// handleStreamClose serves POST /v1/streams/{id}/close: the canonical
// Close-time extraction over the accumulated input. Idempotent —
// closing a closed session returns the stored report again.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such stream"))
		return
	}
	ss.mu.Lock()
	if ss.state == StreamCanceled {
		ss.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Errorf("service: stream %s is canceled", ss.id))
		return
	}
	if ss.report != nil {
		rep := ss.report
		ss.mu.Unlock()
		writeJSON(w, http.StatusOK, rep)
		return
	}
	ss.mu.Unlock()

	// Finalize under the server's base context so shutdown cancels the
	// extraction; chordal.Stream.Close is itself idempotent, so two
	// racing close requests get one extraction and the same result.
	res, err := ss.stream.Close(s.baseCtx)
	now := time.Now()
	if err != nil {
		ss.mu.Lock()
		ss.state = StreamCanceled
		ss.finished = now
		ss.log.add("done", map[string]string{"state": StreamCanceled, "error": err.Error()})
		ss.mu.Unlock()
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	ss.mu.Lock()
	if ss.report == nil {
		ss.state = StreamClosed
		ss.finished = now
		ss.lastActive = now
		ss.report = &res.Report
		ss.subgraph = res.Subgraph
		ss.log.add("done", res.Report)
	}
	rep := ss.report
	ss.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// handleStreamStatus serves GET /v1/streams/{id}.
func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such stream"))
		return
	}
	writeJSON(w, http.StatusOK, ss.status())
}

// handleStreamDelete serves DELETE /v1/streams/{id}: the session is
// abandoned — no finalize, the maintained subgraph is dropped, and the
// id is removed from the store.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such stream"))
		return
	}
	ss.mu.Lock()
	if ss.state == StreamOpen {
		ss.state = StreamCanceled
		ss.finished = time.Now()
		ss.log.add("done", map[string]string{"state": StreamCanceled})
	}
	ss.mu.Unlock()
	s.mu.Lock()
	delete(s.streams, ss.id)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ss.status())
}

// handleStreamEvents serves GET /v1/streams/{id}/events: the session's
// admission event log as SSE, replayed then followed live until the
// terminal "done" event or disconnect.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such stream"))
		return
	}
	serveSSE(w, r, ss)
}

// handleStreamResult serves GET /v1/streams/{id}/result: the canonical
// subgraph of a closed session, same formats as the job result.
func (s *Server) handleStreamResult(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookupStream(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such stream"))
		return
	}
	ss.mu.Lock()
	sub := ss.subgraph
	state := ss.state
	ss.mu.Unlock()
	if state != StreamClosed || sub == nil {
		httpError(w, http.StatusConflict,
			fmt.Errorf("service: stream %s is %s, result not available", ss.id, state))
		return
	}
	writeResult(w, r, ss.id, sub)
}
