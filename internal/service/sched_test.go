package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"chordal/internal/sched"
)

// This file pins the multi-tenant scheduling and admission-control
// surface end to end: load shedding with 429 + Retry-After on a
// saturated queue, cross-tenant cache/single-flight dedup surviving
// saturation, lifecycle of scheduler-queued jobs (cancel, Close, GC),
// and the tenant labels on statuses and events.

// postJobTenant posts a JobRequest under a tenant and returns the raw
// response (callers close the body); raw because shed responses carry
// an error payload and a Retry-After header, not a JobStatus.
func postJobTenant(t *testing.T, base, tenant string, req JobRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("POST /v1/jobs (tenant %q): %v", tenant, err)
	}
	return resp
}

// submitTenantJSON is postJobTenant + status decode for responses that
// are expected to carry a JobStatus.
func submitTenantJSON(t *testing.T, base, tenant string, req JobRequest) (JobStatus, int) {
	t.Helper()
	resp := postJobTenant(t, base, tenant, req)
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return st, resp.StatusCode
}

// schedulerStats fetches GET /v1/scheduler.
func schedulerStats(t *testing.T, base string) sched.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/scheduler")
	if err != nil {
		t.Fatalf("GET /v1/scheduler: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/scheduler: status %d", resp.StatusCode)
	}
	var st sched.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode scheduler stats: %v", err)
	}
	return st
}

// TestServiceLoadShed429 saturates a 1-slot, 1-deep-queue service and
// pins the admission-control contract end to end: the overflow
// submission sheds with 429 and a sane Retry-After; cache hits and
// in-flight duplicates — including from other tenants — are never
// shed; and after the queue drains, the shed spec resubmits
// successfully.
func TestServiceLoadShed429(t *testing.T) {
	svc, ts := startServer(t, Config{
		MaxConcurrent: 1,
		Workers:       1,
		Scheduler:     sched.Config{MaxQueue: 1},
	})
	hold := svc.budget.Lease(0) // park the dispatched job in its budget wait

	// Job 1 takes the single run slot (blocked in its lease), job 2
	// fills the 1-deep pending queue.
	st1, code := submitTenantJSON(t, ts.URL, "alice", JobRequest{Source: "gnm:900:2700"})
	if code != http.StatusAccepted {
		t.Fatalf("job 1: code %d, want 202", code)
	}
	if st1.Tenant != "alice" {
		t.Fatalf("job 1 tenant %q, want alice", st1.Tenant)
	}
	st2, code := submitTenantJSON(t, ts.URL, "bob", JobRequest{Source: "gnm:901:2703"})
	if code != http.StatusAccepted {
		t.Fatalf("job 2: code %d, want 202", code)
	}
	if st2.State != StateQueued || st2.QueuePosition != 1 {
		t.Fatalf("job 2 = %+v, want queued at position 1", st2)
	}

	// The queue is full: a third distinct spec sheds with 429 and a
	// Retry-After header inside the clamp range.
	resp := postJobTenant(t, ts.URL, "bob", JobRequest{Source: "gnm:902:2706"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: code %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	resp.Body.Close()
	if err != nil || retry < 1 || retry > 300 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 300]", resp.Header.Get("Retry-After"))
	}

	// Saturation must not shed dedup: the same specs resubmitted — by
	// other tenants — attach to the in-flight jobs instead of 429ing.
	dup1, code := submitTenantJSON(t, ts.URL, "carol", JobRequest{Source: "gnm:900:2700"})
	if code != http.StatusAccepted || dup1.ID != st1.ID {
		t.Fatalf("cross-tenant duplicate of running job: code %d id %s, want 202 on %s", code, dup1.ID, st1.ID)
	}
	dup2, code := submitTenantJSON(t, ts.URL, "", JobRequest{Source: "gnm:901:2703"})
	if code != http.StatusAccepted || dup2.ID != st2.ID {
		t.Fatalf("duplicate of queued job: code %d id %s, want 202 on %s", code, dup2.ID, st2.ID)
	}

	if stats := schedulerStats(t, ts.URL); stats.Shed < 1 || stats.Queued != 1 || stats.Running != 1 {
		t.Fatalf("scheduler stats during saturation = %+v, want shed>=1 queued=1 running=1", stats)
	}

	// Drain: both jobs complete, the shed spec now submits fine, and a
	// cross-tenant resubmission of job 1 is a plain cache hit.
	svc.budget.Release(hold)
	counts, done := followEvents(t, ts.URL, st1.ID)
	if done.State != StateDone {
		t.Fatalf("job 1 finished %q (%s)", done.State, done.Error)
	}
	if counts["queued"] != 1 || counts["admitted"] != 1 {
		t.Fatalf("job 1 admission events = %v, want one queued and one admitted", counts)
	}
	if _, done := followEvents(t, ts.URL, st2.ID); done.State != StateDone {
		t.Fatalf("job 2 finished %q (%s)", done.State, done.Error)
	}
	st3, code := submitTenantJSON(t, ts.URL, "bob", JobRequest{Source: "gnm:902:2706"})
	if code != http.StatusAccepted {
		t.Fatalf("post-drain retry of shed spec: code %d, want 202", code)
	}
	if _, done := followEvents(t, ts.URL, st3.ID); done.State != StateDone {
		t.Fatalf("retried job finished %q (%s)", done.State, done.Error)
	}
	hit, code := submitTenantJSON(t, ts.URL, "dave", JobRequest{Source: "gnm:900:2700"})
	if code != http.StatusOK || hit.ID != st1.ID {
		t.Fatalf("cross-tenant cache hit: code %d id %s, want 200 on %s", code, hit.ID, st1.ID)
	}
}

// TestTenantRateLimit429 pins the token-bucket admission path over
// HTTP: a burst-1 tenant's second immediate submission sheds with 429
// while other tenants are unaffected, and stream opens draw from the
// same bucket.
func TestTenantRateLimit429(t *testing.T) {
	_, ts := startServer(t, Config{Scheduler: sched.Config{
		Tenants: map[string]sched.TenantConfig{
			"limited": {RatePerSec: 0.001, Burst: 1},
		},
	}})

	if _, code := submitTenantJSON(t, ts.URL, "limited", JobRequest{Source: "gnm:300:900"}); code != http.StatusAccepted {
		t.Fatalf("first limited submission: code %d, want 202", code)
	}
	resp := postJobTenant(t, ts.URL, "limited", JobRequest{Source: "gnm:301:903"})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("second limited submission: code %d Retry-After %q, want 429 with header",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	// The bucket is per tenant: an unlimited tenant submits freely.
	if _, code := submitTenantJSON(t, ts.URL, "free", JobRequest{Source: "gnm:302:906"}); code != http.StatusAccepted {
		t.Fatalf("unlimited tenant: code %d, want 202", code)
	}

	// Stream opens share the tenant's bucket, so the drained bucket
	// sheds them too.
	body := bytes.NewReader([]byte(`{"vertices":16}`))
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/streams", body)
	hr.Header.Set("X-Tenant", "limited")
	sresp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stream open on drained bucket: code %d, want 429", sresp.StatusCode)
	}
}

// TestCancelSchedulerQueuedJob pins DELETE on a job still waiting in
// the scheduler's pending queue (as opposed to the budget-lease wait
// the pre-scheduler cancel test covers): the job must reach canceled,
// leave the queue immediately, and release nothing.
func TestCancelSchedulerQueuedJob(t *testing.T) {
	svc, ts := startServer(t, Config{MaxConcurrent: 1, Workers: 2})
	hold := svc.budget.Lease(0)

	st1, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:1100:3300"})
	st2, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:1101:3303"})
	if st2.State != StateQueued || st2.QueuePosition != 1 {
		t.Fatalf("job 2 = %+v, want scheduler-queued at position 1", st2)
	}

	if _, code := doDelete(t, ts.URL, st2.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE queued job: code %d, want 202", code)
	}
	if _, done := followEvents(t, ts.URL, st2.ID); done.State != StateCanceled {
		t.Fatalf("canceled job terminal state %q", done.State)
	}
	// The ticket left the pending queue at cancel time, not at some
	// later dispatch: the scheduler reports an empty queue while job 1
	// still holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := svc.sched.Stats()
		if stats.Queued == 0 && stats.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler did not release the canceled ticket: %+v", stats)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Job 1 is unaffected: it drains normally and frees its slot.
	svc.budget.Release(hold)
	if _, done := followEvents(t, ts.URL, st1.ID); done.State != StateDone {
		t.Fatalf("job 1 finished %q (%s)", done.State, done.Error)
	}
	if stats := svc.sched.Stats(); stats.Running != 0 || stats.Queued != 0 {
		t.Fatalf("post-drain scheduler occupancy = %+v, want empty", stats)
	}
	if avail := svc.budget.Available(); avail != svc.budget.Total() {
		t.Fatalf("budget %d/%d after drain: canceled job leaked tokens", avail, svc.budget.Total())
	}
}

// TestCloseWithQueuedTenantsNoLeak extends the shutdown leak contract
// to non-empty per-tenant scheduler queues: Close with one dispatched
// job parked in its budget wait and further jobs pending under several
// tenants must drive everything terminal and return the process to its
// pre-server goroutine count with the budget intact.
func TestCloseWithQueuedTenantsNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{MaxConcurrent: 1, Workers: 1, JobTTL: time.Hour})
	hold := svc.budget.Lease(0)
	var jobs []*Job
	for i, tenant := range []string{"a", "b", ""} {
		spec, err := newJobSpec(JobRequest{Source: "gnm:1500:4500:" + strconv.Itoa(i)}, false)
		if err != nil {
			t.Fatal(err)
		}
		job, _, err := svc.submitTenant(spec, nil, tenant)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if stats := svc.sched.Stats(); stats.Queued != 2 || stats.Running != 1 {
		t.Fatalf("pre-Close scheduler occupancy = %+v, want 1 running + 2 queued", stats)
	}

	svc.Close()

	for _, j := range jobs {
		if st := j.Status(); !terminalState(st.State) {
			t.Fatalf("job %s state %q after Close, want terminal", j.ID(), st.State)
		}
	}
	if stats := svc.sched.Stats(); stats.Queued != 0 {
		t.Fatalf("scheduler still holds %d queued tickets after Close", stats.Queued)
	}
	svc.budget.Release(hold)
	if avail := svc.budget.Available(); avail != svc.budget.Total() {
		t.Fatalf("budget %d/%d after Close: shutdown leaked tokens", avail, svc.budget.Total())
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, want <= %d: leak after Close with queued tenants",
				runtime.NumGoroutine(), before+2)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGCSparesSchedulerQueuedJobs pins the sweep predicate for the
// scheduler era: a job waiting in the scheduler's pending queue — like
// one parked in its budget-lease wait — reports queued (with its queue
// position) and survives TTL sweeps indefinitely; only terminal jobs
// age out.
func TestGCSparesSchedulerQueuedJobs(t *testing.T) {
	svc, ts := startServer(t, Config{JobTTL: 20 * time.Millisecond, MaxConcurrent: 1, Workers: 2})
	hold := svc.budget.Lease(0)
	defer svc.budget.Release(hold)

	st1, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:700:2100"})
	st2, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:701:2103"})
	time.Sleep(100 * time.Millisecond) // several TTL intervals
	if removed := svc.gcSweep(time.Now()); removed != 0 {
		t.Fatalf("sweep removed %d jobs while both were queued", removed)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || st.State != StateQueued {
			t.Fatalf("job %s: status %d state %q, want 200 queued", id, resp.StatusCode, st.State)
		}
		if id == st2.ID && st.QueuePosition != 1 {
			t.Fatalf("scheduler-queued job reports position %d, want 1", st.QueuePosition)
		}
	}
}

// TestBatchLoadShed429 pins batch admission: a batch larger than the
// remaining queue capacity sheds whole with 429 before creating any
// job, and a batch that fits fans out normally.
func TestBatchLoadShed429(t *testing.T) {
	svc, ts := startServer(t, Config{
		MaxConcurrent: 1,
		Workers:       1,
		Scheduler:     sched.Config{MaxQueue: 2},
	})
	hold := svc.budget.Lease(0)

	post := func(items ...string) *http.Response {
		var req BatchRequest
		for _, src := range items {
			req.Items = append(req.Items, JobRequest{Source: src})
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Capacity is 2 pending + 1 slot; a 4-item batch cannot fit and
	// sheds before any member job exists.
	resp := post("gnm:400:1200", "gnm:401:1203", "gnm:402:1206", "gnm:403:1209")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("oversized batch: code %d Retry-After %q, want 429 with header",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
	svc.mu.Lock()
	stored := len(svc.jobs)
	svc.mu.Unlock()
	if stored != 0 {
		t.Fatalf("shed batch left %d jobs in the store", stored)
	}

	// A 2-item batch fits (1 dispatched + 1 queued) and completes.
	resp = post("gnm:400:1200", "gnm:401:1203")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting batch: code %d, want 202", resp.StatusCode)
	}
	var bst BatchStatus
	json.NewDecoder(resp.Body).Decode(&bst)
	resp.Body.Close()
	svc.budget.Release(hold)
	deadline := time.Now().Add(30 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/v1/batches/" + bst.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur BatchStatus
		json.NewDecoder(r2.Body).Decode(&cur)
		r2.Body.Close()
		if cur.Done {
			if cur.Counts[StateDone] != 2 {
				t.Fatalf("batch finished with counts %v, want 2 done", cur.Counts)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch did not finish: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
