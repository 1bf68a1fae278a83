// Package service implements the extraction service: a long-running
// HTTP job server over chordal.Spec and chordal.Runner, the serving
// layer for production-scale traffic on top of the paper's algorithm.
//
// # API
//
//	POST   /v1/jobs              submit a job: JSON {source, options} or
//	                             a multipart graph upload (field "graph",
//	                             optional "options" JSON field)
//	GET    /v1/jobs/{id}         status + run report
//	DELETE /v1/jobs/{id}         cancel a queued or running job; it
//	                             drains at the kernel's next
//	                             cancellation check into the
//	                             terminal "canceled" state with
//	                             its budget tokens released
//	GET    /v1/jobs/{id}/events  server-sent events: state changes, stage
//	                             starts, per-iteration extraction progress
//	                             (sharded jobs tag events with the shard)
//	GET    /v1/jobs/{id}/result  the chordal subgraph (?format=edges|bin|mtx)
//	POST   /v1/batches           submit many jobs at once: JSON
//	                             {items: [{source, options}, ...]}; each
//	                             item becomes (or joins) a regular job,
//	                             with caching and single-flight dedup
//	GET    /v1/batches/{id}        aggregate per-item status + counts
//	GET    /v1/batches/{id}/events merged SSE over every member job,
//	                             each event wrapped with its batch index
//	GET    /v1/scheduler         weighted-fair scheduler snapshot:
//	                             per-tenant queue depth, running slots,
//	                             served share, shed counts, queue waits
//	GET    /healthz              liveness + job/batch/cache counters
//
// # Architecture
//
// Submitted jobs enter a weighted-fair run queue (internal/sched) with
// Config.MaxConcurrent dispatch slots. Every request is attributed to
// a tenant (the X-Tenant or X-API-Key header; absent means the default
// tenant) with a configurable weight, priority class, running quota,
// token-bucket rate limit, and bounded pending queue. Backlogged
// tenants are served in proportion to their weights (virtual-time fair
// queueing over per-job cost estimates), so one tenant's flood — or
// one 100-item batch — can no longer monopolize the run queue, and a
// light tenant's job dispatches within a bounded wait. Admission
// control sheds instead of queueing without bound: a submission that
// would overflow the tenant's or the global pending bound, or that
// exceeds the tenant's rate limit, receives 429 Too Many Requests with
// a Retry-After hint computed from the observed queue drain rate. The
// default tenant runs at weight 1 with no rate limit and the global
// queue bound, preserving the single-tenant service behavior.
//
// Each dispatched job leases worker tokens
// from one shared parallel.Budget sized to the machine: a job with no
// explicit request takes its fair share (total / MaxConcurrent, with
// MaxConcurrent clamped to the budget), so the extraction kernels of
// simultaneous default-width jobs divide the cores instead of each
// running full width, and never serialize behind one another's leases
// (a job requesting explicit parallelism beyond the free tokens does
// wait for a release). The lease is threaded through every pipeline
// stage — acquire (generation and file decode), relabel, the
// extraction kernel (whole-graph or per-shard), and subgraph
// materialization all run inside the granted width, so concurrent jobs
// never oversubscribe the box. Each job runs its chordal.Spec through
// a chordal.Runner under its own context derived from the server's
// base context: shutdown cancels every in-flight extraction at its
// kernel's next cancellation check (an iteration boundary, or every
// 4096 parents of a one-worker sweep), and DELETE /v1/jobs/{id}
// cancels one job the same way, releasing its budget tokens as its
// goroutine drains.
//
// Jobs are identified by the canonical encoding of their
// chordal.Spec (Spec.Canonical): requests decode into a Spec, generator
// sources are normalized (family lowercased, defaults filled), uploads
// are content-addressed, and the engine plus its parameters render in
// fixed field order, so equivalent submissions — different JSON key
// order, whitespace, or spelled-out defaults — share one identity, the
// same one a CLI run or library Spec would compute. Two byte-bounded
// LRU caches exploit that identity: generated input graphs are cached
// by canonical source (the benchmark and bio-suite shapes regenerate
// the same specs constantly), and completed extractions are cached by
// the full canonical spec, so a repeated spec is served instantly
// (HTTP 200). A result-cache hit returns the job that
// produced the result (or one persistent born-done job if that one was
// garbage collected) rather than registering a new job per request,
// and identical cacheable specs submitted while the first is still
// running are deduplicated onto that single in-flight execution
// (single-flight), so a stampede of equal requests costs one pipeline
// run and one job id. Terminal jobs are garbage collected
// Config.JobTTL after finishing, keeping the job store bounded.
//
// Every job keeps an append-only event log; the SSE endpoint replays it
// from the start and then follows live appends, so a subscriber that
// connects late still sees the full history through the terminal "done"
// event.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/parallel"
	"chordal/internal/sched"
)

// Config sizes the server. The zero value is ready to use; see each
// field for its default.
type Config struct {
	// MaxConcurrent bounds simultaneously running jobs; <= 0 means 2.
	// Further submissions queue. Clamped to the worker budget —
	// admitting more jobs than there are worker tokens could only
	// serialize the surplus behind earlier leases.
	MaxConcurrent int
	// Workers is the total worker-token budget shared by all running
	// jobs; <= 0 means the machine's effective parallelism.
	Workers int
	// InputCacheBytes bounds the generated-input LRU by the summed CSR
	// byte size of the graphs it holds; 0 means 256 MiB, negative
	// disables input caching. Reported by /healthz alongside current
	// occupancy.
	InputCacheBytes int64
	// ResultCacheBytes bounds the completed-extraction LRU by the
	// summed CSR byte size of the cached subgraphs; 0 means 256 MiB,
	// negative disables result caching. Reported by /healthz alongside
	// current occupancy.
	ResultCacheBytes int64
	// MaxUploadBytes bounds one multipart graph upload; <= 0 means
	// 256 MiB.
	MaxUploadBytes int64
	// AllowPathSources permits jobs whose source is a server-side file
	// path. Off by default: on a network-facing server, path sources
	// let any client probe server files (parse errors echo file
	// contents and parseable graphs are downloadable via /result).
	// Enable only for trusted single-tenant deployments.
	AllowPathSources bool
	// JobTTL is how long a terminal (done, failed, canceled) job stays
	// in the store after finishing before the GC sweep removes it; 0
	// means 15 minutes, negative disables GC. Cached results outlive
	// their job: a later cache hit re-registers one born-done job.
	JobTTL time.Duration
	// Scheduler configures the weighted-fair run queue and admission
	// control: the global pending bound, the default tenant policy
	// template, and per-tenant policy by tenant name (see sched.Config;
	// chordald's -tenant-config file fills Scheduler.Tenants). Slots is
	// ignored — MaxConcurrent is the slot count. The zero value keeps
	// the pre-scheduler behavior for single-tenant traffic: FIFO
	// dispatch at weight 1, no rate limits, and a generous (4096)
	// pending bound in place of unbounded queueing.
	Scheduler sched.Config
}

// cachedResult is one completed extraction in the result LRU. jobID is
// the job whose status a cache hit returns — the producing job, or a
// born-done replacement registered after the producer was garbage
// collected; it is read and written under Server.mu.
type cachedResult struct {
	jobID    string
	report   *chordal.RunReport
	subgraph *graph.Graph
}

// Server is the extraction service. Create with New, mount as an
// http.Handler, and Close on shutdown to cancel in-flight jobs.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	budget *parallel.Budget
	sched  *sched.Scheduler

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	seq      int
	batches  map[string]*batchRec
	batchSeq int
	// inflight maps a cacheable job key to its currently executing job,
	// the single-flight table: identical concurrent submissions attach
	// to the entry instead of running the pipeline again.
	inflight map[string]*Job
	// streams holds the live streaming sessions; they ride the same GC
	// sweep as jobs (terminal sessions by age, open ones by idleness).
	streams   map[string]*streamSession
	streamSeq int

	inputs  *lruCache[*graph.Graph]
	results *lruCache[*cachedResult]
}

// New creates a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.InputCacheBytes == 0 {
		cfg.InputCacheBytes = 256 << 20
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = 256 << 20
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	budget := parallel.NewBudget(cfg.Workers)
	if cfg.MaxConcurrent > budget.Total() {
		cfg.MaxConcurrent = budget.Total()
	}
	schedCfg := cfg.Scheduler
	schedCfg.Slots = cfg.MaxConcurrent
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		budget:   budget,
		sched:    sched.New(schedCfg),
		baseCtx:  ctx,
		stop:     stop,
		jobs:     make(map[string]*Job),
		batches:  make(map[string]*batchRec),
		inflight: make(map[string]*Job),
		streams:  make(map[string]*streamSession),
		inputs: newLRU[*graph.Graph](cfg.InputCacheBytes, func(g *graph.Graph) int64 {
			return g.SizeBytes()
		}),
		results: newLRU[*cachedResult](cfg.ResultCacheBytes, func(r *cachedResult) int64 {
			// The subgraph CSR dominates; the report and bookkeeping
			// ride along under a small fixed charge.
			cost := int64(4096)
			if r.subgraph != nil {
				cost += r.subgraph.SizeBytes()
			}
			return cost
		}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamOpen)
	s.mux.HandleFunc("POST /v1/streams/{id}/edges", s.handleStreamEdges)
	s.mux.HandleFunc("POST /v1/streams/{id}/close", s.handleStreamClose)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamStatus)
	s.mux.HandleFunc("GET /v1/streams/{id}/events", s.handleStreamEvents)
	s.mux.HandleFunc("GET /v1/streams/{id}/result", s.handleStreamResult)
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("GET /v1/scheduler", s.handleScheduler)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.JobTTL > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s
}

// gcLoop periodically sweeps terminal jobs older than JobTTL out of
// the store. It exits when the server closes.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	interval := s.cfg.JobTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.gcSweep(time.Now())
		}
	}
}

// gcSweep removes every terminal job that finished more than JobTTL
// before now, returning how many were removed. Queued and running jobs
// are never touched; a swept job's cached result (if any) stays in the
// LRU and a later hit re-registers one born-done job.
func (s *Server) gcSweep(now time.Time) int {
	cutoff := now.Add(-s.cfg.JobTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for id, j := range s.jobs {
		if j.terminalBefore(cutoff) {
			delete(s.jobs, id)
			removed++
		}
	}
	// A batch follows its members out: once every member job is both
	// terminal and older than the TTL, the record (which pins the job
	// objects in memory) goes too. The batch's own age gates the sweep:
	// a fresh batch whose items all hit the result cache is made of
	// jobs that finished before it was created, and must not vanish
	// moments after its 202.
	for id, b := range s.batches {
		if b.created.Before(cutoff) && b.terminalBefore(cutoff) {
			delete(s.batches, id)
		}
	}
	// Streaming sessions: terminal ones age out like jobs, and an open
	// session with no delta, close, or status activity for a full TTL is
	// abandoned — sweeping it drops the maintained subgraph it pins.
	for id, ss := range s.streams {
		if ss.created.Before(cutoff) && ss.expired(cutoff) {
			delete(s.streams, id)
		}
	}
	return removed
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close rejects further submissions, cancels every queued and running
// job, and waits for their goroutines to drain. Safe to call more than
// once.
func (s *Server) Close() {
	// The closed flag and submit's wg.Add share one critical section,
	// so no Add can race the Wait below (sync.WaitGroup forbids Add
	// concurrent with Wait on a zero counter).
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	// Fail every scheduler-queued ticket too: job contexts are already
	// canceled above, so this is belt and braces for tickets whose
	// goroutines have not yet observed the dead context.
	s.sched.Close()
	s.wg.Wait()
}

// errShuttingDown rejects submissions that race server shutdown.
var errShuttingDown = errors.New("service: server is shutting down")

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit accepts a job: a JSON JobRequest, or a multipart form
// with the graph bytes in field "graph" (format chosen by filename
// extension, as for a file path in chordal.ParseSource) and optional
// JobOptions JSON in field "options".
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobSpec
	var upload *graph.Graph

	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "multipart/form-data") {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
		if err := r.ParseMultipartForm(32 << 20); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("service: bad multipart form: %w", err))
			return
		}
		file, hdr, err := r.FormFile("graph")
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf(`service: multipart submission needs a "graph" file field`))
			return
		}
		defer file.Close()
		var opts JobOptions
		if o := r.FormValue("options"); o != "" {
			if err := json.Unmarshal([]byte(o), &opts); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("service: bad options field: %w", err))
				return
			}
		}
		format := uploadFormat(hdr.Filename)
		// Reject bad options before paying a hash pass over a
		// potentially multi-hundred-MiB upload: normalize against a
		// placeholder digest, which shares every validation rule with
		// the real spec built below.
		if _, err := opts.Spec(chordal.UploadSource(format, [sha256.Size]byte{})); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// Hash by streaming over the (memory- or disk-spooled)
		// multipart file rather than buffering a second in-heap copy,
		// then rewind to parse — multipart form files are seekable.
		h := sha256.New()
		if _, err := io.Copy(h, file); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var digest [sha256.Size]byte
		copy(digest[:], h.Sum(nil))
		source := chordal.UploadSource(format, digest)
		cs, err := opts.Spec(source)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		src, err := chordal.ParseSource(cs.Source)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if spec, err = finishJobSpec(cs, src); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// Probe the result cache before parsing: the job key needs only
		// the format, content hash and options, so a re-upload of an
		// already-extracted graph skips the (potentially large) parse.
		if job, ok := s.tryCached(spec); ok {
			w.Header().Set("Location", "/v1/jobs/"+job.ID())
			writeJSON(w, http.StatusOK, job.Status())
			return
		}
		if _, err := file.Seek(0, io.SeekStart); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		g, err := parseUpload(format, file)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		upload = g
	} else {
		var req JobRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
			return
		}
		var err error
		if spec, err = newJobSpec(req, s.cfg.AllowPathSources); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}

	job, hit, err := s.submitTenant(spec, upload, tenantFromRequest(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	code := http.StatusAccepted
	if hit {
		code = http.StatusOK
	}
	writeJSON(w, code, job.Status())
}

// submit is submitTenant for the default tenant.
func (s *Server) submit(spec jobSpec, upload *graph.Graph) (*Job, bool, error) {
	return s.submitTenant(spec, upload, "")
}

// submitTenant registers a job for spec on behalf of a tenant, serving
// it from the result cache when possible and deduplicating onto an
// identical in-flight job otherwise; only a genuinely new spec is
// enqueued with the scheduler. Caches and single-flight are shared
// across tenants — the canonical spec is the identity, so tenant B's
// resubmission of tenant A's spec is a hit. The returned bool reports
// a cache hit; the error is errShuttingDown when the server is closing
// or a *sched.ShedError when admission control rejects the submission.
func (s *Server) submitTenant(spec jobSpec, upload *graph.Graph, tenant string) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errShuttingDown
	}
	key := spec.Key()
	if spec.cacheable() {
		// Single-flight: an identical cacheable spec already executing
		// absorbs this submission — the caller shares its job id,
		// events and result instead of stampeding the pipeline.
		//
		// The inflight check MUST precede the cache probe: the runner
		// publishes to the result cache first and deletes its inflight
		// entry second (under this same lock), so a submission that
		// misses the inflight map is guaranteed to see the result in
		// the cache — missing both, and re-running the pipeline, is
		// impossible.
		if j, ok := s.inflight[key]; ok {
			// A job publishes its "done" event before its runner
			// leaves this map, so a client that resubmits on that
			// event can still land here: a hit on the finished job.
			_, done := j.result()
			return j, done, nil
		}
	}
	if job, ok := s.tryCachedLocked(spec); ok {
		return job, true, nil
	}
	// Admission control happens after the dedup probes — cache hits and
	// absorbed duplicates cost no queue slot, so they are never shed.
	ticket, err := s.sched.Enqueue(tenant, spec.cost())
	if err != nil {
		return nil, false, err
	}
	job := newJob(s.nextIDLocked(), spec, time.Now())
	job.tenant = tenant
	job.ticket = ticket
	job.ctx, job.cancel = context.WithCancel(s.baseCtx)
	job.appendEvent("queued", map[string]any{
		"tenant":   displayTenant(tenant),
		"position": ticket.Position(),
		"cost":     spec.cost(),
	})
	s.jobs[job.ID()] = job
	if spec.cacheable() {
		s.inflight[key] = job
	}
	s.wg.Add(1)
	go s.run(job, upload)
	return job, false, nil
}

// nextIDLocked allocates a job identifier; callers hold s.mu.
func (s *Server) nextIDLocked() string {
	s.seq++
	return fmt.Sprintf("j%06d", s.seq)
}

// tryCached serves spec from the result cache when possible. A hit
// returns the job that produced the cached result while it is still in
// the store; once that job has been garbage collected, one born-done
// job is registered and pinned to the cache entry, so repeated hits
// reuse a single job id instead of minting one per request.
func (s *Server) tryCached(spec jobSpec) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tryCachedLocked(spec)
}

// tryCachedLocked is tryCached with s.mu held (the LRU has its own
// lock and never takes s.mu, so probing it here cannot deadlock).
func (s *Server) tryCachedLocked(spec jobSpec) (*Job, bool) {
	if !spec.cacheable() {
		return nil, false
	}
	hit, ok := s.results.Get(spec.Key())
	if !ok {
		return nil, false
	}
	now := time.Now()
	if j, ok := s.jobs[hit.jobID]; ok {
		return j, true
	}
	job := newJob(s.nextIDLocked(), spec, now)
	job.cached = true
	// A born-done job never ran, but clients compute durations from
	// started/finished; stamp both with the submission instant (the
	// job is not yet published, so direct writes are safe).
	job.started = now
	job.complete(now, hit.report, hit.subgraph)
	hit.jobID = job.ID()
	s.jobs[job.ID()] = job
	return job, true
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// uploadFormat resolves an uploaded filename to its decode format,
// following the extension rules chordal.ParseSource applies to paths.
func uploadFormat(filename string) string {
	switch {
	case strings.HasSuffix(filename, ".bin"):
		return "bin"
	case strings.HasSuffix(filename, ".mtx"):
		return "mtx"
	default:
		return "edges"
	}
}

// parseUpload decodes an uploaded graph stream in the given format.
func parseUpload(format string, r io.Reader) (*graph.Graph, error) {
	switch format {
	case "bin":
		return graph.ReadBinary(r)
	case "mtx":
		return graph.ReadMatrixMarket(r)
	default:
		return graph.ReadEdgeList(r, 0)
	}
}

// run executes one job: wait for the weighted-fair scheduler to
// dispatch its ticket, lease workers from the shared budget, resolve
// the input (upload, input cache, generator, or file), run the
// pipeline with progress events, and publish the result to the caches.
// It runs under the job's own context, so both server shutdown and
// DELETE /v1/jobs/{id} drain it at the next boundary — a still-queued
// ticket is removed from its tenant's queue by Wait itself, and the
// run slot, the budget lease, and the single-flight entry are released
// on every exit path.
func (s *Server) run(job *Job, upload *graph.Graph) {
	defer s.wg.Done()
	defer job.cancel()
	// The single-flight entry must outlive the result-cache publish
	// (which happens in the body, before defers run): a duplicate
	// submission always finds the key in at least one of the two.
	defer func() {
		s.mu.Lock()
		if s.inflight[job.spec.Key()] == job {
			delete(s.inflight, job.spec.Key())
		}
		s.mu.Unlock()
	}()
	if err := job.ticket.Wait(job.ctx); err != nil {
		// Canceled (or the scheduler closed) while queued: Wait already
		// released the ticket, so no slot or queue entry leaks.
		job.fail(time.Now(), err)
		return
	}
	defer job.ticket.Done()
	job.appendEvent("admitted", map[string]any{
		"tenant":     displayTenant(job.tenant),
		"waitMillis": float64(job.ticket.QueueWait().Microseconds()) / 1000,
	})

	// A job with no explicit worker request leases its fair share of
	// the pool (total / MaxConcurrent) — even on an otherwise idle
	// server. Leasing more opportunistically would serialize the next
	// arrival behind this job's entire runtime (leases cannot shrink
	// once the kernel starts), so the policy trades some idle-server
	// width for the guarantee that MaxConcurrent default jobs always
	// run side by side; single-tenant callers get full width with an
	// explicit workers request, granted up to the currently free
	// tokens (at least one — an empty pool waits for the first
	// release). The lease precedes the running transition so a
	// token-starved job still reports queued.
	want := job.spec.spec.Workers
	if want <= 0 {
		want = max(1, s.budget.Total()/s.cfg.MaxConcurrent)
	}
	granted, err := s.budget.LeaseContext(job.ctx, want)
	if err != nil {
		// Canceled while waiting for tokens: nothing was leased, so
		// nothing leaks.
		job.fail(time.Now(), err)
		return
	}
	defer s.budget.Release(granted)
	job.setRunning(time.Now())

	spec := job.spec.spec
	spec.Workers = granted
	// The unified event stream serializes straight onto the SSE wire:
	// the event Type is the SSE event name and the marshaled Event the
	// payload. Shard iterations report concurrently; appendEvent
	// serializes under the job lock, so the log stays consistent.
	observe := func(ev chordal.Event) {
		job.appendEvent(string(ev.Type), ev)
	}
	runner := chordal.Runner{Observer: observe}

	// Resolve the input ahead of the run when it can come from the
	// input cache (uploads were parsed at submission; generated sources
	// are deterministic in their canonical spec). File-path sources load
	// inside the runner, where the acquire stage is timed as usual. The
	// service's own acquire reports its begin and end like the runner's
	// stages; an input-cache hit reports the lookup time.
	stageEnd := func(d time.Duration, cached bool) {
		observe(chordal.Event{Type: chordal.EventStageEnd, Stage: "acquire", Cached: cached,
			Millis: float64(d.Microseconds()) / 1000})
	}
	var acquire []chordal.StageTiming
	switch {
	case upload != nil:
		runner.Input = upload
	case job.spec.generated:
		t0 := time.Now()
		if g, ok := s.inputs.Get(spec.Source); ok {
			runner.Input = g
			observe(chordal.Event{Type: chordal.EventStageBegin, Stage: "acquire", Cached: true})
			stageEnd(time.Since(t0), true)
		} else {
			if err := job.ctx.Err(); err != nil {
				job.fail(time.Now(), err)
				return
			}
			src, err := chordal.ParseSource(spec.Source)
			if err != nil {
				job.fail(time.Now(), err)
				return
			}
			observe(chordal.Event{Type: chordal.EventStageBegin, Stage: "acquire"})
			t0 = time.Now()
			// Generation honors the job's lease; the sampled graph is
			// identical at any width, so caching it by canonical spec
			// stays sound.
			g, err := src.LoadWorkers(granted)
			if err != nil {
				job.fail(time.Now(), err)
				return
			}
			acquire = []chordal.StageTiming{{Stage: "acquire", Duration: time.Since(t0)}}
			stageEnd(acquire[0].Duration, false)
			s.inputs.Add(spec.Source, g)
			runner.Input = g
		}
	}

	res, err := runner.Run(job.ctx, spec)
	if err != nil {
		job.fail(time.Now(), err)
		return
	}
	// The service's own acquire leads the runner's stage timings.
	res.Timings = append(acquire, res.Timings...)
	rep, err := chordal.Report(spec, res)
	if err != nil {
		job.fail(time.Now(), err)
		return
	}
	job.complete(time.Now(), &rep, res.Subgraph)
	if job.spec.cacheable() {
		s.results.Add(job.spec.Key(), &cachedResult{jobID: job.ID(), report: &rep, subgraph: res.Subgraph})
	}
}

// handleCancel serves DELETE /v1/jobs/{id}: a queued or running job is
// marked for cancellation and its context fired; the job goroutine
// drains at the kernel's next cancellation check into the terminal
// canceled state, releasing its scheduler ticket (queued or
// dispatched) and budget tokens. Cancelling an already terminal job is
// a 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such job"))
		return
	}
	if !job.requestCancel() {
		httpError(w, http.StatusConflict,
			fmt.Errorf("service: job %s is already %s", job.ID(), job.Status().State))
		return
	}
	job.cancel()
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleStatus serves GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleEvents serves GET /v1/jobs/{id}/events as a server-sent event
// stream: the job's full event log is replayed, then followed live
// until the terminal "done" event or client disconnect.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such job"))
		return
	}
	serveSSE(w, r, job)
}

// handleResult serves GET /v1/jobs/{id}/result: the extracted chordal
// subgraph as a text edge list (format=edges, the default), binary CSR
// (format=bin), or Matrix Market (format=mtx).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("service: no such job"))
		return
	}
	sub, done := job.result()
	if !done {
		httpError(w, http.StatusConflict,
			fmt.Errorf("service: job %s is %s, result not available", job.ID(), job.Status().State))
		return
	}
	writeResult(w, r, job.ID(), sub)
}

// writeResult serves a result subgraph as an attachment named after
// id, in the request's format: a text edge list (format=edges, the
// default), binary CSR (format=bin), or Matrix Market (format=mtx).
func writeResult(w http.ResponseWriter, r *http.Request, id string, sub *graph.Graph) {
	var (
		ext, ctype string
		write      func(io.Writer, *graph.Graph) error
	)
	switch format := r.URL.Query().Get("format"); format {
	case "", "edges":
		ext, ctype, write = "txt", "text/plain; charset=utf-8", graph.WriteEdgeList
	case "bin":
		ext, ctype, write = "bin", "application/octet-stream", graph.WriteBinary
	case "mtx":
		ext, ctype, write = "mtx", "text/plain; charset=utf-8", graph.WriteMatrixMarket
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("service: unknown format %q (want edges|bin|mtx)", format))
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.%s", id, ext))
	// A write error comes after the headers are sent; the broken
	// stream is the client's signal.
	_ = write(w, sub)
}

// handleHealthz serves GET /healthz with liveness and occupancy
// counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	total := len(s.jobs)
	batches := len(s.batches)
	inflight := len(s.inflight)
	streams := len(s.streams)
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[j.Status().State]++
	}
	s.mu.Unlock()
	sst := s.sched.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":                 "ok",
		"jobs":                   total,
		"queued":                 counts[StateQueued],
		"running":                counts[StateRunning],
		"done":                   counts[StateDone],
		"failed":                 counts[StateFailed],
		"canceled":               counts[StateCanceled],
		"inflight":               inflight,
		"batches":                batches,
		"streams":                streams,
		"workers":                s.budget.Total(),
		"budgetAvailable":        s.budget.Available(),
		"budgetWaiters":          s.budget.Waiters(),
		"maxConcurrent":          s.cfg.MaxConcurrent,
		"schedQueued":            sst.Queued,
		"schedRunning":           sst.Running,
		"schedShed":              sst.Shed,
		"schedMaxQueue":          sst.MaxQueue,
		"schedDrainPerSec":       sst.DrainPerSec,
		"schedTenants":           len(sst.Tenants),
		"inputCache":             s.inputs.Len(),
		"inputCacheBytes":        s.inputs.Bytes(),
		"inputCacheBudgetBytes":  s.cfg.InputCacheBytes,
		"resultCache":            s.results.Len(),
		"resultCacheBytes":       s.results.Bytes(),
		"resultCacheBudgetBytes": s.cfg.ResultCacheBytes,
	})
}
