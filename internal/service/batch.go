package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// This file implements the batch surface: POST /v1/batches fans a list
// of job requests out to the ordinary job store — every item becomes
// (or joins) a regular job, so the result cache, single-flight dedup,
// worker-budget leases and per-job cancel all apply unchanged — and the
// batch endpoints aggregate over the member jobs: GET /v1/batches/{id}
// snapshots every item's status, and /v1/batches/{id}/events streams
// the members' SSE logs merged into one connection, each event wrapped
// with its batch index and job id.

// maxBatchItems bounds one batch submission; a larger suite should be
// split, keeping a single request from monopolizing the job queue.
const maxBatchItems = 1024

// BatchRequest is the JSON body of POST /v1/batches: the items are
// ordinary job requests, submitted in order.
type BatchRequest struct {
	// Items are the batch's job requests. Items with identical
	// canonical specs share one job (and one execution) via the same
	// dedup every individual submission gets.
	Items []JobRequest `json:"items"`
}

// BatchItemStatus is one member of a batch status: the item's index in
// the submitted list plus the flattened status of its job.
type BatchItemStatus struct {
	// Index is the item's position in the submitted batch.
	Index int `json:"index"`
	// JobStatus is the member job's current status. Deduplicated items
	// repeat the shared job's status under their own index.
	JobStatus
}

// BatchStatus is the JSON view of a batch returned by POST /v1/batches
// and GET /v1/batches/{id}, and carried by the terminal "batchDone" SSE
// event.
type BatchStatus struct {
	// ID is the server-assigned batch identifier.
	ID string `json:"id"`
	// Created is the submission timestamp.
	Created time.Time `json:"created"`
	// Done reports every member job terminal.
	Done bool `json:"done"`
	// Counts tallies member jobs by state (queued, running, done,
	// failed, canceled).
	Counts map[string]int `json:"counts"`
	// Items holds per-member statuses in submission order.
	Items []BatchItemStatus `json:"items"`
}

// batchRec is the server-side record of a batch: the member jobs in
// submission order. It holds *Job pointers directly, so statuses stay
// readable even after the job GC sweeps a member out of the store.
type batchRec struct {
	id      string
	created time.Time
	jobs    []*Job
}

// status snapshots the batch's aggregate view.
func (b *batchRec) status() BatchStatus {
	st := BatchStatus{
		ID:      b.id,
		Created: b.created,
		Done:    true,
		Counts:  map[string]int{},
	}
	for i, j := range b.jobs {
		js := j.Status()
		st.Counts[js.State]++
		if !terminalState(js.State) {
			st.Done = false
		}
		st.Items = append(st.Items, BatchItemStatus{Index: i, JobStatus: js})
	}
	return st
}

// terminalBefore reports whether every member job is terminal and
// finished before t — the batch GC predicate.
func (b *batchRec) terminalBefore(t time.Time) bool {
	for _, j := range b.jobs {
		if !j.terminalBefore(t) {
			return false
		}
	}
	return true
}

// handleBatchSubmit serves POST /v1/batches: every item is validated
// first (one bad item rejects the whole batch before any job runs),
// then fanned out through the ordinary submission path — cache hits and
// in-flight duplicates attach to existing jobs; only genuinely new
// specs queue executions. Admission control applies to the batch as a
// unit: a conservative capacity pre-check (assuming every item is a new
// job) sheds the whole batch with 429 before any member submits, so a
// partially-admitted batch can only arise from losing an admission race
// mid-fan-out — that, too, sheds the request with 429, and the members
// already admitted run (or dedup) normally.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("service: bad batch body: %w", err))
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("service: batch needs at least one item"))
		return
	}
	if len(req.Items) > maxBatchItems {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("service: batch of %d items exceeds the %d-item limit; split it", len(req.Items), maxBatchItems))
		return
	}
	specs := make([]jobSpec, len(req.Items))
	for i, item := range req.Items {
		spec, err := newJobSpec(item, s.cfg.AllowPathSources)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("service: batch item %d: %w", i, err))
			return
		}
		specs[i] = spec
	}

	tenant := tenantFromRequest(r)
	if err := s.sched.CheckCapacity(tenant, len(specs)); err != nil {
		writeSubmitError(w, err)
		return
	}

	rec := &batchRec{created: time.Now()}
	for _, spec := range specs {
		job, _, err := s.submitTenant(spec, nil, tenant)
		if err != nil {
			// A shed here means another tenant's submissions raced past
			// the pre-check, or shutdown raced the fan-out; jobs already
			// submitted run (or are canceled by Close) like any others.
			writeSubmitError(w, err)
			return
		}
		rec.jobs = append(rec.jobs, job)
	}

	s.mu.Lock()
	s.batchSeq++
	rec.id = fmt.Sprintf("b%06d", s.batchSeq)
	s.batches[rec.id] = rec
	s.mu.Unlock()

	w.Header().Set("Location", "/v1/batches/"+rec.id)
	writeJSON(w, http.StatusAccepted, rec.status())
}

// lookupBatch finds a batch by id.
func (s *Server) lookupBatch(id string) (*batchRec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// handleBatchStatus serves GET /v1/batches/{id}.
func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookupBatch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such batch"))
		return
	}
	writeJSON(w, http.StatusOK, rec.status())
}

// batchFrame is one merged SSE event ready to write: the member job's
// event name, with its payload wrapped in {batch, job, data}.
type batchFrame struct {
	name string
	data string
}

// handleBatchEvents serves GET /v1/batches/{id}/events: the member
// jobs' SSE logs merged into one stream. Each member event keeps its
// original event name; the data payload is wrapped as
// {"batch":index,"job":"id","data":<original payload>} so a consumer
// can demultiplex. The stream ends with one "batchDone" event carrying
// the final BatchStatus once every member is terminal.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.lookupBatch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such batch"))
		return
	}
	flusher, ok := startSSE(w)
	if !ok {
		return
	}

	// One forwarder per member replays and follows that job's log; the
	// single writer loop serializes frames onto the wire. Forwarders
	// stop at their job's terminal event or on client disconnect.
	ctx := r.Context()
	frames := make(chan batchFrame, 64)
	var wg sync.WaitGroup
	for i, job := range rec.jobs {
		wg.Add(1)
		go func(index int, job *Job) {
			defer wg.Done()
			follow(ctx, job, func(evs []sseEvent) bool {
				for _, e := range evs {
					frame := batchFrame{
						name: e.name,
						data: fmt.Sprintf(`{"batch":%d,"job":%q,"data":%s}`, index, job.ID(), e.data),
					}
					select {
					case frames <- frame:
					case <-ctx.Done():
						return false
					}
				}
				return true
			})
		}(i, job)
	}
	go func() {
		wg.Wait()
		close(frames)
	}()
	for f := range frames {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.name, f.data)
		flusher.Flush()
	}
	if ctx.Err() == nil {
		payload, err := json.Marshal(rec.status())
		if err == nil {
			fmt.Fprintf(w, "event: batchDone\ndata: %s\n\n", payload)
			flusher.Flush()
		}
	}
}
