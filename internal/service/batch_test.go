package service

import (
	"bufio"
	"bytes"
	"chordal"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postBatch submits a BatchRequest and decodes the returned status.
func postBatch(t *testing.T, base string, req BatchRequest) (BatchStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batches: %v", err)
	}
	defer resp.Body.Close()
	var st BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	return st, resp.StatusCode
}

// waitBatchDone polls GET /v1/batches/{id} until Done.
func waitBatchDone(t *testing.T, base, id string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/batches/" + id)
		if err != nil {
			t.Fatalf("GET batch: %v", err)
		}
		var st BatchStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode batch status: %v", err)
		}
		if st.Done {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("batch did not finish in time")
	return BatchStatus{}
}

// TestBatchEndpointFanOut drives POST /v1/batches end to end: items
// fan out to ordinary jobs, identical items share one job via the
// usual dedup, the aggregate status reaches Done with per-item
// run reports, and the member jobs remain individually addressable.
func TestBatchEndpointFanOut(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 2, Workers: 4})
	verify := true
	req := BatchRequest{Items: []JobRequest{
		{Source: "rmat-g:9:5", Options: JobOptions{Verify: &verify}},
		{Source: "gnm:500:2000:3", Options: JobOptions{Verify: &verify}},
		{Source: "RMAT-G:9:5:8", Options: JobOptions{Verify: &verify}}, // dedups onto item 0's job
	}}
	st, code := postBatch(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/batches = %d, want 202", code)
	}
	if st.ID == "" || len(st.Items) != 3 {
		t.Fatalf("batch status %+v", st)
	}
	if st.Items[0].ID != st.Items[2].ID {
		t.Errorf("canonical duplicates got distinct jobs %s / %s", st.Items[0].ID, st.Items[2].ID)
	}
	if st.Items[0].ID == st.Items[1].ID {
		t.Error("distinct specs share a job")
	}

	final := waitBatchDone(t, ts.URL, st.ID)
	if final.Counts[StateDone] != 3 {
		t.Fatalf("final counts %+v, want 3 done", final.Counts)
	}
	for _, item := range final.Items {
		if item.Report == nil || item.Report.Verify == nil || !item.Report.Verify.Chordal {
			t.Errorf("item %d lacks a verified run report: %+v", item.Index, item.Report)
		}
	}

	// Member jobs stay reachable through the ordinary job API.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.Items[1].ID)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET member job: %v / %v", err, resp)
	}
	resp.Body.Close()

	// Healthz counts the batch.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if n, _ := hz["batches"].(float64); n != 1 {
		t.Errorf("healthz batches = %v, want 1", hz["batches"])
	}
}

// TestBatchEndpointValidation pins the all-or-nothing admission rule:
// one invalid item rejects the whole batch with its index named, and
// empty batches are rejected.
func TestBatchEndpointValidation(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 1})
	body := func(req BatchRequest) *bytes.Reader {
		b, _ := json.Marshal(req)
		return bytes.NewReader(b)
	}

	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", body(BatchRequest{}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/batches", "application/json", body(BatchRequest{Items: []JobRequest{
		{Source: "gnm:100:300:1"},
		{Source: "gnm:10:20", Options: JobOptions{Engine: "serial", EngineConfig: chordal.EngineConfig{Shards: 4}}},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting item = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(e["error"], "item 1") || !strings.Contains(e["error"], "conflict") {
		t.Errorf("error %q should name item 1 and the conflict", e["error"])
	}
	// Nothing was admitted: no batch exists and no job ran.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if n, _ := hz["batches"].(float64); n != 0 {
		t.Errorf("healthz batches = %v after rejected submissions, want 0", hz["batches"])
	}
	if n, _ := hz["jobs"].(float64); n != 0 {
		t.Errorf("healthz jobs = %v after rejected submissions, want 0", hz["jobs"])
	}
}

// TestBatchGCSpareFreshCacheHitBatch pins the GC window the sweep must
// not fall into: a batch whose items all hit the result cache is made
// of jobs that finished before the batch existed, so the member-age
// predicate alone would sweep it seconds after its 202. The batch's
// own creation time gates the sweep.
func TestBatchGCSpareFreshCacheHitBatch(t *testing.T) {
	svc, ts := startServer(t, Config{MaxConcurrent: 1, JobTTL: time.Hour})
	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:200:800:5"})
	followEvents(t, ts.URL, st.ID) // wait for completion

	// Backdate the producing job past the TTL while it is still stored:
	// the batch below attaches to it via the result cache, recreating
	// the window where every member is sweep-old the moment the batch
	// is born.
	job, ok := svc.lookup(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	job.mu.Lock()
	job.finished = time.Now().Add(-2 * time.Hour)
	job.mu.Unlock()

	bst, code := postBatch(t, ts.URL, BatchRequest{Items: []JobRequest{{Source: "gnm:200:800:5"}}})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if !bst.Done {
		t.Fatalf("cache-hit batch not born done: %+v", bst)
	}
	if bst.Items[0].ID != st.ID {
		t.Fatalf("batch item job %s, want cache hit on %s", bst.Items[0].ID, st.ID)
	}

	if removed := svc.gcSweep(time.Now()); removed == 0 {
		t.Fatal("sweep removed no jobs; the cache-hit window was not constructed")
	}
	resp, err := http.Get(ts.URL + "/v1/batches/" + bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh batch swept with its aged members: GET = %d, want 200", resp.StatusCode)
	}
	// Once the batch itself ages past the TTL it goes too.
	svc.gcSweep(time.Now().Add(3 * time.Hour))
	resp, err = http.Get(ts.URL + "/v1/batches/" + bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("aged batch not swept: GET = %d, want 404", resp.StatusCode)
	}
}

// TestBatchEndpointMergedSSE checks the merged event stream: every
// member job's events arrive wrapped with its batch index and job id,
// and the stream terminates with one batchDone event carrying the
// final aggregate status.
func TestBatchEndpointMergedSSE(t *testing.T) {
	_, ts := startServer(t, Config{MaxConcurrent: 2, Workers: 4})
	verify := true
	st, code := postBatch(t, ts.URL, BatchRequest{Items: []JobRequest{
		{Source: "rmat-g:9:5", Options: JobOptions{Verify: &verify}},
		{Source: "gnm:400:1600:7", Options: JobOptions{Verify: &verify}},
	}})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/batches/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET batch events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	type frame struct {
		Batch *int            `json:"batch"`
		Job   string          `json:"job"`
		Data  json.RawMessage `json:"data"`
	}
	seenBatch := map[int]bool{}
	doneEvents := 0
	var batchDone *BatchStatus
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() && batchDone == nil {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "batchDone" {
				var final BatchStatus
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("decode batchDone: %v", err)
				}
				batchDone = &final
				continue
			}
			var f frame
			if err := json.Unmarshal([]byte(data), &f); err != nil {
				t.Fatalf("merged event %q is not wrapped JSON: %v", data, err)
			}
			if f.Batch == nil || f.Job == "" || len(f.Data) == 0 {
				t.Fatalf("merged frame missing batch/job/data: %s", data)
			}
			seenBatch[*f.Batch] = true
			if event == "done" {
				doneEvents++
			}
		}
	}
	if !seenBatch[0] || !seenBatch[1] {
		t.Errorf("merged stream missing items: saw %v", seenBatch)
	}
	if doneEvents != 2 {
		t.Errorf("%d per-job done events, want 2", doneEvents)
	}
	if batchDone == nil || !batchDone.Done || batchDone.Counts[StateDone] != 2 {
		t.Errorf("batchDone = %+v", batchDone)
	}
}
