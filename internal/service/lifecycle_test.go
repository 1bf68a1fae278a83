package service

import (
	"bytes"
	"chordal"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// doDelete issues DELETE /v1/jobs/{id} and decodes the response.
func doDelete(t *testing.T, base, id string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode
}

// TestCacheHitReturnsProducingJob pins the fix for the born-done job
// churn: a result-cache hit must return the job that produced the
// result — same id, no new job registered per request.
func TestCacheHitReturnsProducingJob(t *testing.T) {
	svc, ts := startServer(t, Config{})
	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:800:2400"})
	followEvents(t, ts.URL, st.ID)

	for i := 0; i < 5; i++ {
		hit, code := submitJSON(t, ts.URL, JobRequest{Source: "GNM:800:2400:42"})
		if code != http.StatusOK || hit.ID != st.ID {
			t.Fatalf("hit %d: code %d id %s, want 200 with id %s", i, code, hit.ID, st.ID)
		}
	}
	svc.mu.Lock()
	stored := len(svc.jobs)
	svc.mu.Unlock()
	if stored != 1 {
		t.Fatalf("job store holds %d jobs after 5 cache hits, want 1", stored)
	}
}

// TestJobGC pins the TTL sweep: a terminal job leaves the store after
// JobTTL, and a later cache hit re-registers exactly one born-done job
// whose id is then pinned for further hits.
func TestJobGC(t *testing.T) {
	svc, ts := startServer(t, Config{JobTTL: 30 * time.Millisecond})
	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:600:1800"})
	followEvents(t, ts.URL, st.ID)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still in the store long after its TTL", st.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The cached result survived the job: the next submission is still
	// a hit, served by one fresh born-done job...
	hit, code := submitJSON(t, ts.URL, JobRequest{Source: "gnm:600:1800"})
	if code != http.StatusOK || !hit.Cached || hit.State != StateDone {
		t.Fatalf("post-GC hit: code %d %+v, want 200 cached done", code, hit)
	}
	if hit.ID == st.ID {
		t.Fatalf("post-GC hit reused the collected id %s", st.ID)
	}
	// ...whose id is pinned: an immediate further hit reuses it instead
	// of minting another.
	hit2, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:600:1800"})
	if hit2.ID != hit.ID {
		t.Fatalf("second post-GC hit minted %s, want pinned %s", hit2.ID, hit.ID)
	}
	_ = svc
}

// TestGCSpareRunningJobs pins the sweep predicate: only terminal jobs
// age out; a running job held at the gate survives sweeps far beyond
// its TTL.
func TestGCSpareRunningJobs(t *testing.T) {
	svc, ts := startServer(t, Config{JobTTL: 20 * time.Millisecond, Workers: 2})
	holdGate(t)

	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:500:1500", Options: gated()})
	time.Sleep(100 * time.Millisecond) // several sweep intervals
	if removed := svc.gcSweep(time.Now()); removed != 0 {
		t.Fatalf("sweep removed %d jobs while one was running", removed)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.State != StateRunning {
		t.Fatalf("held job: status %d state %q, want 200 running", resp.StatusCode, got.State)
	}
}

// TestSingleFlightDedup pins the cache-stampede fix: identical specs
// submitted while the first is still executing share that execution
// and its job id. The first job is held deterministically at the gate
// so the duplicates must land mid-flight.
func TestSingleFlightDedup(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 2, Workers: 2})
	release := holdGate(t)

	st1, code1 := submitJSON(t, ts.URL, JobRequest{Source: "gnm:2500:7500", Options: gated()})
	if code1 != http.StatusAccepted {
		t.Fatalf("first submission: code %d", code1)
	}
	for i := 0; i < 4; i++ {
		dup, code := submitJSON(t, ts.URL, JobRequest{Source: "GNM:2500:7500:42", Options: gated()})
		if dup.ID != st1.ID {
			t.Fatalf("duplicate %d ran as its own job %s, want shared %s", i, dup.ID, st1.ID)
		}
		if code != http.StatusAccepted {
			t.Fatalf("duplicate %d: code %d, want 202 (shared in-flight job)", i, code)
		}
	}
	// A different spec is not absorbed.
	other, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:2500:7500:7", Options: gated()})
	if other.ID == st1.ID {
		t.Fatal("distinct spec deduplicated onto the wrong job")
	}

	release()
	if _, done := followEvents(t, ts.URL, st1.ID); done.State != StateDone {
		t.Fatalf("shared job finished %q (%s)", done.State, done.Error)
	}
	if _, done := followEvents(t, ts.URL, other.ID); done.State != StateDone {
		t.Fatalf("other job finished %q (%s)", done.State, done.Error)
	}
	// Post-flight, the same spec is a plain cache hit on the shared job.
	hit, code := submitJSON(t, ts.URL, JobRequest{Source: "gnm:2500:7500", Options: gated()})
	if code != http.StatusOK || hit.ID != st1.ID {
		t.Fatalf("post-flight: code %d id %s, want 200 on %s", code, hit.ID, st1.ID)
	}
}

// TestCancelQueuedJob pins the DELETE endpoint end to end on a running
// job held deterministically at the gate: cancel must drive it to the
// terminal canceled state and give its slot back, so the next job
// runs at that slot's width.
func TestCancelQueuedJob(t *testing.T) {
	svc, ts := startServer(t, Config{MaxConcurrent: 2, Workers: 2})
	holdGate(t)

	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:3000:9000", Options: gated()})
	got, code := doDelete(t, ts.URL, st.ID)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE: code %d, want 202", code)
	}
	if terminalState(got.State) && got.State != StateCanceled {
		t.Fatalf("DELETE response state %q", got.State)
	}
	_, done := followEvents(t, ts.URL, st.ID)
	if done.State != StateCanceled {
		t.Fatalf("terminal state %q (error %q), want canceled", done.State, done.Error)
	}

	// Cancelling a terminal job is a conflict.
	if _, code := doDelete(t, ts.URL, st.ID); code != http.StatusConflict {
		t.Fatalf("second DELETE: code %d, want 409", code)
	}

	// The canceled job gives its slot and width back as its goroutine
	// drains; a request for every worker then runs at its slot's width.
	deadline := time.Now().Add(5 * time.Second)
	for svc.sched.Stats().Running != 0 || len(svc.widths) != cap(svc.widths) {
		if time.Now().After(deadline) {
			t.Fatalf("canceled job kept its slot: %d running, %d of %d slot widths free",
				svc.sched.Stats().Running, len(svc.widths), cap(svc.widths))
		}
		time.Sleep(2 * time.Millisecond)
	}
	body, _ := json.Marshal(JobRequest{Source: "gnm:1000:3000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Workers: 2}}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var full JobStatus
	json.NewDecoder(resp.Body).Decode(&full)
	resp.Body.Close()
	_, done = followEvents(t, ts.URL, full.ID)
	if done.State != StateDone || done.Report.Spec.Workers != 1 {
		t.Fatalf("post-cancel job asking for 2 workers: %+v, want done at its slot width 1", done)
	}
}

// TestCancelUnknownJob: DELETE of a job that never existed is a 404.
func TestCancelUnknownJob(t *testing.T) {
	_, ts := startServer(t, Config{})
	if _, code := doDelete(t, ts.URL, "jx"); code != http.StatusNotFound {
		t.Fatalf("code %d, want 404", code)
	}
}

// TestCancelNoGoroutineLeak extends the shutdown leak contract to
// cancellation: after cancelling jobs (running and scheduler-queued)
// and closing the server, the process goroutine count returns to its
// pre-server level.
func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{MaxConcurrent: 1, Workers: 1, JobTTL: time.Hour})
	holdGate(t)
	// One job running at the gate, one queued behind it for the slot.
	specA, err := newJobSpec(JobRequest{Source: "gnm:2000:6000", Options: gated()}, false)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := newJobSpec(JobRequest{Source: "gnm:2000:6000:7", Options: gated()}, false)
	if err != nil {
		t.Fatal(err)
	}
	jobA, _, err := svc.submit(specA, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobB, _, err := svc.submit(specB, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{jobA, jobB} {
		if !j.requestCancel() {
			t.Fatalf("job %s already terminal before cancel", j.ID())
		}
		j.cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, b := jobA.Status(), jobB.Status()
		if a.State == StateCanceled && b.State == StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs not canceled: %s=%q %s=%q", jobA.ID(), a.State, jobB.ID(), b.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Close()

	deadline = time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, want <= %d: worker leak after cancel + Close",
				runtime.NumGoroutine(), before+2)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedJobOverHTTP drives the shards=N option end to end: the
// job must finish verified chordal with per-shard iteration counts in
// its run report, and its cache identity must be distinct from the
// unsharded spec.
func TestShardedJobOverHTTP(t *testing.T) {
	_, ts := startServer(t, Config{})

	body := `{"source":"rmat-g:10:7","options":{"shards":4}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	counts, done := followEvents(t, ts.URL, st.ID)
	if done.State != StateDone {
		t.Fatalf("sharded job: %q (error %q)", done.State, done.Error)
	}
	sh := done.Report.Extraction.Shard
	if sh == nil || sh.Shards != 4 || len(sh.PerShardIterations) != 4 {
		t.Fatalf("shard summary %+v, want 4 shards with per-shard iterations", sh)
	}
	if v := done.Report.Verify; v == nil || !v.Chordal {
		t.Fatalf("sharded result not verified chordal: %+v", v)
	}
	if sh.BorderTotal == 0 {
		t.Errorf("4-way shard of an R-MAT graph reported no border edges")
	}
	if counts["iteration"] < 4 {
		t.Errorf("saw %d shard iteration SSE events, want >= 4", counts["iteration"])
	}

	// The unsharded spelling of the same source is a different job, not
	// a cache hit.
	plain, code := submitJSON(t, ts.URL, JobRequest{Source: "rmat-g:10:7"})
	if code == http.StatusOK || plain.ID == st.ID {
		t.Fatalf("unsharded spec collided with sharded job: code %d id %s", code, plain.ID)
	}
}
