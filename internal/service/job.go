package service

import (
	"context"
	"sync"
	"time"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/sched"
)

// Job states, in lifecycle order. A job moves queued → running → done,
// failed, or canceled; cache hits are born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminalState reports whether s is a final job state.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the JSON view of a job returned by POST /v1/jobs and
// GET /v1/jobs/{id}, and carried by the terminal "done" SSE event.
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is one of queued, running, done, failed, canceled.
	State string `json:"state"`
	// Source is the canonical input spec the job runs (uploads appear
	// as upload:<hash>).
	Source string `json:"source"`
	// Cached reports a born-done job registered to represent a cached
	// result whose producing job was garbage collected. A result-cache
	// hit normally returns the producing job itself (same id, Cached
	// false) with HTTP 200 signalling the hit.
	Cached bool `json:"cached,omitempty"`
	// Tenant is the tenant the job was submitted under; omitted for
	// the default tenant, keeping single-tenant responses unchanged.
	Tenant string `json:"tenant,omitempty"`
	// QueuePosition is the job's current 1-based place in its tenant's
	// scheduler queue; present only while the job is queued there.
	QueuePosition int `json:"queuePosition,omitempty"`
	// Created, Started and Finished are lifecycle timestamps; Started
	// and Finished are omitted until reached.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Report is the library's run report (chordal.Report) once the job
	// is done: the normalized spec with the worker width it ran at, its
	// canonical key, input statistics, the engine summary, the verify
	// outcome, quality and per-stage timings. An input-cache hit adds
	// no acquire timing. A result-cache hit carries the report of the
	// run that filled the cache.
	Report *chordal.RunReport `json:"report,omitempty"`
}

// Job is one submitted extraction: lifecycle state, the append-only
// event log that SSE subscribers replay and follow, and the result.
// All fields behind mu.
type Job struct {
	id     string
	spec   jobSpec
	cached bool
	// tenant is the submitting tenant ("" = default) and ticket the
	// job's handle on the weighted-fair scheduler; both are set by
	// Server.submitTenant before the job is published and never
	// change (born-done cache hits leave ticket nil — they were never
	// scheduled).
	tenant string
	ticket *sched.Ticket

	created time.Time

	// ctx governs the job's execution and cancel aborts it; both are
	// set by Server.submit before the job is published (born-done cache
	// hits leave them nil — there is nothing to cancel).
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	canceling bool // DELETE arrived; the next error finishes as canceled
	started   time.Time
	finished  time.Time
	err       error
	report    *chordal.RunReport
	subgraph  *graph.Graph
	log       eventLog
}

// newJob creates a queued job for spec.
func newJob(id string, spec jobSpec, now time.Time) *Job {
	j := &Job{
		id:      id,
		spec:    spec,
		created: now,
		state:   StateQueued,
	}
	j.appendEvent("state", map[string]string{"state": StateQueued})
	return j
}

// ID returns the server-assigned job identifier.
func (j *Job) ID() string { return j.id }

// appendEvent marshals data and appends it to the event log, waking
// subscribers. Callers must not hold j.mu.
func (j *Job) appendEvent(name string, data any) {
	j.mu.Lock()
	j.log.add(name, data)
	j.mu.Unlock()
}

// eventsSince makes Job an eventSource: the log after cursor, and
// whether the job is terminal.
func (j *Job) eventsSince(cursor int) (evs []sseEvent, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs, changed = j.log.since(cursor)
	return evs, terminalState(j.state), changed
}

// setRunning transitions the job to running. The state change and its
// event land in one critical section so subscribers never observe one
// without the other.
func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.log.add("state", map[string]string{"state": StateRunning})
	j.mu.Unlock()
}

// complete finishes the job with its run report and extracted subgraph,
// appending the terminal "done" event atomically with the state change
// (a subscriber that sees the terminal state is guaranteed the event is
// already in the log).
func (j *Job) complete(now time.Time, rep *chordal.RunReport, sub *graph.Graph) {
	j.mu.Lock()
	j.state = StateDone
	j.finished = now
	j.report = rep
	j.subgraph = sub
	j.log.add("done", j.statusLocked())
	j.mu.Unlock()
}

// fail finishes the job with an error; event ordering as in complete.
// A job whose cancellation was requested finishes in the terminal
// canceled state instead of failed — the context error it died with is
// the cancel taking effect, not a fault.
func (j *Job) fail(now time.Time, err error) {
	j.mu.Lock()
	if j.canceling {
		j.state = StateCanceled
	} else {
		j.state = StateFailed
	}
	j.finished = now
	j.err = err
	j.log.add("done", j.statusLocked())
	j.mu.Unlock()
}

// requestCancel marks the job for cancellation. It returns false when
// the job is already terminal (nothing to cancel); otherwise the
// caller must follow up by firing j.cancel. The job reaches the
// terminal canceled state when its goroutine observes the dead context
// at the next boundary.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalState(j.state) {
		return false
	}
	j.canceling = true
	return true
}

// terminalBefore reports whether the job is terminal and finished
// before t — the GC sweep predicate.
func (j *Job) terminalBefore(t time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state) && j.finished.Before(t)
}

// Status snapshots the job as its JSON view. The scheduler queue
// position is read before taking the job lock (the scheduler has its
// own mutex and never calls back into Job, so the order is safe); a
// position observed just before dispatch simply reports the final
// queued instant.
func (j *Job) Status() JobStatus {
	var pos int
	if j.ticket != nil {
		pos = j.ticket.Position()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if st.State == StateQueued {
		st.QueuePosition = pos
	}
	return st
}

// statusLocked builds the JSON view; callers hold j.mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:      j.id,
		State:   j.state,
		Source:  j.spec.spec.Source,
		Cached:  j.cached,
		Tenant:  j.tenant,
		Created: j.created,
		Report:  j.report,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// result returns the extracted subgraph of a done job.
func (j *Job) result() (*graph.Graph, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.subgraph, j.state == StateDone && j.subgraph != nil
}
