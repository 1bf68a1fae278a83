package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chordal"
	"chordal/internal/graph"
)

// startServer spins up the service behind an httptest listener.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// submitJSON posts a JobRequest and decodes the returned status.
func submitJSON(t *testing.T, base string, req JobRequest) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return st, resp.StatusCode
}

// followEvents streams SSE for a job until the terminal "done" event,
// returning per-event-name counts and the final status.
func followEvents(t *testing.T, base, id string) (map[string]int, JobStatus) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q, want text/event-stream", ct)
	}
	counts := map[string]int{}
	var event string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			counts[event]++
			if event == "done" {
				var st JobStatus
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
					t.Fatalf("decode done event: %v", err)
				}
				return counts, st
			}
		}
	}
	t.Fatalf("event stream ended without a done event (err=%v, counts=%v)", scanner.Err(), counts)
	return nil, JobStatus{}
}

// gateEngine is the parallel engine behind a gate a test holds: its
// Extract waits for the gate to open or the job's context to end, so a
// dispatched job stays running, holding its slot, until the test lets
// it go. Jobs select it with gated().
type gateEngine struct {
	mu   sync.Mutex
	open chan struct{}
}

func (*gateEngine) Name() string { return "test-gate" }

func (e *gateEngine) Extract(ctx context.Context, g *chordal.Graph, cfg chordal.EngineConfig) (*chordal.EngineResult, error) {
	e.mu.Lock()
	open := e.open
	e.mu.Unlock()
	select {
	case <-open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	eng, _ := chordal.LookupEngine(chordal.EngineParallel)
	return eng.Extract(ctx, g, cfg)
}

var (
	gate         = &gateEngine{}
	registerGate sync.Once
)

// holdGate closes the gate engine's gate and returns the function that
// opens it again, which also runs when the test ends.
func holdGate(t *testing.T) (release func()) {
	t.Helper()
	registerGate.Do(func() { chordal.RegisterEngine(gate) })
	open := make(chan struct{})
	gate.mu.Lock()
	gate.open = open
	gate.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(open) }) }
	t.Cleanup(release)
	return release
}

// gated returns the options of a job that runs on the gate engine.
func gated() JobOptions { return JobOptions{Engine: gate.Name()} }

// TestServeJobEndToEnd is the acceptance flow: submit an RMAT Source
// spec, observe per-iteration SSE progress, fetch a verified chordal
// result, and watch an identical resubmission hit the result cache.
func TestServeJobEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{})

	st, code := submitJSON(t, ts.URL, JobRequest{Source: "rmat-er:8:7"})
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want %d", code, http.StatusAccepted)
	}
	if st.ID == "" || st.Cached {
		t.Fatalf("first submission: %+v, want uncached job with id", st)
	}

	counts, done := followEvents(t, ts.URL, st.ID)
	if counts["iteration"] < 1 {
		t.Errorf("saw %d iteration SSE events, want >= 1 (all events: %v)", counts["iteration"], counts)
	}
	if counts["stage"] < 1 {
		t.Errorf("saw %d stage SSE events, want >= 1", counts["stage"])
	}
	if done.State != StateDone {
		t.Fatalf("terminal state %q (error %q), want %q", done.State, done.Error, StateDone)
	}
	rep := done.Report
	if rep == nil || rep.Extraction == nil {
		t.Fatal("done status has no run report")
	}
	if rep.Verify == nil || !rep.Verify.Chordal {
		t.Errorf("result not verified chordal: %+v", rep)
	}
	if rep.Extraction.ChordalEdges <= 0 || rep.Extraction.Iterations < 1 {
		t.Errorf("implausible report: %+v", rep.Extraction)
	}

	// Status endpoint agrees with the terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled JobStatus
	json.NewDecoder(resp.Body).Decode(&polled)
	resp.Body.Close()
	if polled.State != StateDone || polled.Report == nil {
		t.Errorf("GET status = %+v, want done with a run report", polled)
	}

	// Result in edge-list form matches the reported edge count.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=edges")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	var header string
	if sc := bufio.NewScanner(resp.Body); sc.Scan() {
		header = sc.Text()
	}
	want := fmt.Sprintf("%d edges", rep.Extraction.ChordalEdges)
	if !strings.Contains(header, want) {
		t.Errorf("result header %q does not report %s", header, want)
	}

	// An equivalent respelled submission is a cache hit (HTTP 200)
	// returning the producing job itself — same id, no new job minted.
	st2, code2 := submitJSON(t, ts.URL, JobRequest{Source: " RMAT-ER:8:7:8 "})
	if code2 != http.StatusOK {
		t.Errorf("resubmission: status %d, want %d (cache hit)", code2, http.StatusOK)
	}
	if st2.ID != st.ID || st2.State != StateDone {
		t.Errorf("resubmission: %+v, want the original done job %s", st2, st.ID)
	}
	if st2.Report == nil || st2.Report.Extraction.ChordalEdges != rep.Extraction.ChordalEdges {
		t.Errorf("cached report %+v, want %d chordal edges", st2.Report, rep.Extraction.ChordalEdges)
	}
}

// jobStageEvents streams SSE for a job until the terminal "done" event,
// returning its stage and stageEnd events in order.
func jobStageEvents(t *testing.T, base, id string) []chordal.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var evs []chordal.Event
	var event string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "done":
			return evs
		case strings.HasPrefix(line, "data: ") && (event == "stage" || event == "stageEnd"):
			var ev chordal.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("decode %s event: %v", event, err)
			}
			evs = append(evs, ev)
		}
	}
	t.Fatalf("event stream ended without a done event (err=%v)", scanner.Err())
	return nil
}

// TestJobStageEventsPaired: every stage event in a job's SSE log is
// followed by a stageEnd for the same stage, including the acquire the
// service runs itself for a generated input — on a cold job, and on an
// input-cache hit (the same source under other options, so the result
// cache misses), whose acquire is marked cached.
func TestJobStageEventsPaired(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, c := range []struct {
		opts   JobOptions
		cached bool
	}{
		{JobOptions{}, false},
		{JobOptions{Relabel: "degree"}, true},
	} {
		st, code := submitJSON(t, ts.URL, JobRequest{Source: "rmat-er:8:7", Options: c.opts})
		if code != http.StatusAccepted {
			t.Fatalf("submit %+v: status %d, want %d", c.opts, code, http.StatusAccepted)
		}
		evs := jobStageEvents(t, ts.URL, st.ID)
		var stages []string
		for i := 0; i < len(evs); i += 2 {
			begin := evs[i]
			if begin.Type != chordal.EventStageBegin || i+1 == len(evs) {
				t.Fatalf("job %s: event %d is %s %s, want a stage begin with its end (log %+v)", st.ID, i, begin.Type, begin.Stage, evs)
			}
			if end := evs[i+1]; end.Type != chordal.EventStageEnd || end.Stage != begin.Stage || end.Cached != begin.Cached {
				t.Fatalf("job %s: stage %s is followed by %+v, want its stageEnd", st.ID, begin.Stage, end)
			}
			stages = append(stages, begin.Stage)
		}
		if len(stages) == 0 || stages[0] != "acquire" || evs[0].Cached != c.cached {
			t.Errorf("job %s: stage events %+v, want acquire first with cached=%t", st.ID, evs, c.cached)
		}
	}
}

// TestConcurrentSubmissions hammers one spec from many goroutines with
// the race detector on: every job must complete, and once the first
// finishes the rest of the traffic is eventually served from cache.
func TestConcurrentSubmissions(t *testing.T) {
	svc, ts := startServer(t, Config{MaxConcurrent: 3})

	const clients = 12
	var wg sync.WaitGroup
	states := make([]JobStatus, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := "gnm:2000:8000"
			if i%3 == 0 {
				src = "GNM:2000:8000:42" // respelled, same canonical job
			}
			st, _ := submitJSON(t, ts.URL, JobRequest{Source: src})
			_, done := followEvents(t, ts.URL, st.ID)
			states[i] = done
		}(i)
	}
	wg.Wait()

	edges := int64(-1)
	for i, st := range states {
		if st.State != StateDone {
			t.Fatalf("client %d: state %q (error %q)", i, st.State, st.Error)
		}
		if got := st.Report.Extraction.ChordalEdges; edges == -1 {
			edges = got
		} else if got != edges {
			t.Errorf("client %d: %d chordal edges, others got %d", i, got, edges)
		}
	}

	// The dust has settled: one more submission must be a pure hit —
	// HTTP 200 with an already-done job, no fresh execution.
	st, code := submitJSON(t, ts.URL, JobRequest{Source: "gnm:2000:8000"})
	if code != http.StatusOK || st.State != StateDone {
		t.Errorf("post-storm submission: code %d state %s, want 200/done cache hit", code, st.State)
	}
	if got := svc.results.Len(); got < 1 {
		t.Errorf("result cache has %d entries, want >= 1", got)
	}
}

// TestMultipartUpload submits graph bytes directly and checks the
// upload is content-addressed in the cache.
func TestMultipartUpload(t *testing.T) {
	_, ts := startServer(t, Config{})

	post := func() (JobStatus, int) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		fw, _ := mw.CreateFormFile("graph", "square.txt")
		// A 4-cycle plus one chord: extraction keeps the triangles.
		fmt.Fprint(fw, "0 1\n1 2\n2 3\n0 3\n0 2\n")
		mw.WriteField("options", `{"repair": true}`)
		mw.Close()
		resp, err := http.Post(ts.URL+"/v1/jobs", mw.FormDataContentType(), &buf)
		if err != nil {
			t.Fatalf("POST multipart: %v", err)
		}
		defer resp.Body.Close()
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return st, resp.StatusCode
	}

	st, code := post()
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d, want %d", code, http.StatusAccepted)
	}
	if !strings.HasPrefix(st.Source, "upload:") {
		t.Errorf("upload source %q, want content-addressed upload:<hash>", st.Source)
	}
	_, done := followEvents(t, ts.URL, st.ID)
	if done.State != StateDone {
		t.Fatalf("upload job: %q (error %q)", done.State, done.Error)
	}
	if got := done.Report.Extraction.ChordalEdges; got != 5 {
		// All five edges fit: the chord triangulates the square.
		t.Errorf("upload extraction kept %d edges, want 5", got)
	}

	st2, code2 := post()
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Errorf("re-upload: code %d id %s, want content-addressed hit on job %s", code2, st2.ID, st.ID)
	}
}

// TestMalformedBinaryUpload posts a binary CSR whose vertex 2 lists
// neighbour 7 of a 3-vertex graph. The decoder's error is a 400, and
// the same server then completes a well-formed binary upload.
func TestMalformedBinaryUpload(t *testing.T) {
	_, ts := startServer(t, Config{})
	post := func(g *graph.Graph) (JobStatus, int, string) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		fw, _ := mw.CreateFormFile("graph", "g.bin")
		if err := graph.WriteBinary(fw, g); err != nil {
			t.Fatal(err)
		}
		mw.Close()
		resp, err := http.Post(ts.URL+"/v1/jobs", mw.FormDataContentType(), &buf)
		if err != nil {
			t.Fatalf("POST multipart: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var st JobStatus
		json.Unmarshal(body, &st)
		return st, resp.StatusCode, string(body)
	}

	bad := &graph.Graph{Offsets: []int64{0, 0, 0, 1}, Adj: []int32{7}, Sorted: true}
	if _, code, body := post(bad); code != http.StatusBadRequest || !strings.Contains(body, "outside [0, 3)") {
		t.Fatalf("malformed upload: status %d body %s, want 400 naming the out-of-range id", code, body)
	}
	// A 4-cycle plus one chord, as in TestMultipartUpload.
	good := graph.BuildFromEdges(4, []int32{0, 1, 2, 0, 0}, []int32{1, 2, 3, 3, 2}, 0)
	st, code, body := post(good)
	if code != http.StatusAccepted {
		t.Fatalf("well-formed upload after the rejected one: status %d body %s", code, body)
	}
	if _, done := followEvents(t, ts.URL, st.ID); done.State != StateDone || done.Report.Extraction.ChordalEdges != 5 {
		t.Fatalf("well-formed upload: %q (error %q), report %+v, want done with 5 chordal edges", done.State, done.Error, done.Report)
	}
}

// TestUploadFormatIgnoresCase posts a binary CSR named g.BIN: the
// upload decodes as binary CSR, the format graph.Format gives a .bin
// name in any case, and its identity names that format.
func TestUploadFormatIgnoresCase(t *testing.T) {
	_, ts := startServer(t, Config{})
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormFile("graph", "g.BIN")
	// A 4-cycle plus one chord, as in TestMultipartUpload.
	if err := graph.WriteBinary(fw, graph.BuildFromEdges(4, []int32{0, 1, 2, 0, 0}, []int32{1, 2, 3, 3, 2}, 0)); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatalf("POST multipart: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st JobStatus
	json.Unmarshal(body, &st)
	if resp.StatusCode != http.StatusAccepted || !strings.HasPrefix(st.Source, "upload:bin:") {
		t.Fatalf("g.BIN upload: status %d body %s, want 202 with an upload:bin: identity", resp.StatusCode, body)
	}
	if _, done := followEvents(t, ts.URL, st.ID); done.State != StateDone || done.Report.Extraction.ChordalEdges != 5 {
		t.Fatalf("g.BIN upload: %q (error %q), report %+v, want done with 5 chordal edges", done.State, done.Error, done.Report)
	}
}

// TestJobErrorsSurface checks API error paths. Path sources are
// enabled to exercise the load-failure path; the default gating is
// asserted separately.
func TestJobErrorsSurface(t *testing.T) {
	_, ts := startServer(t, Config{AllowPathSources: true})

	// Bad spec is a 400 at submission.
	_, code := func() (JobStatus, int) {
		body := []byte(`{"source":"rmat-er"}`)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return JobStatus{}, resp.StatusCode
	}()
	if code != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", code)
	}

	// Unknown job is a 404 everywhere.
	for _, path := range []string{"/v1/jobs/jx", "/v1/jobs/jx/events", "/v1/jobs/jx/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// A job whose source fails to load fails with the error surfaced.
	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "/no/such/file.txt"})
	_, done := followEvents(t, ts.URL, st.ID)
	if done.State != StateFailed || done.Error == "" {
		t.Errorf("missing-file job: %+v, want failed with error", done)
	}

	// Result of a failed job is a 409.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("failed-job result: status %d, want 409", resp.StatusCode)
	}
}

// TestBadGeneratorSpecsRejected pins that a generator spec outside its
// family's parameter bounds is a 400 at submission: no job is created,
// so the generator's precondition panic is never reached on a job
// goroutine, and the server keeps answering.
func TestBadGeneratorSpecsRejected(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, src := range []string{
		"ws:10:20:0.1", "ktree:10:20", "ktree:5:0", "geo:100:-1", "gnm:10:1000", "ws:100:2:2", "geo:10:NaN",
		"rmat-er:31", "rmat-g:0", "rmat-b:10:42:0",
	} {
		body, _ := json.Marshal(JobRequest{Source: src})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", src, resp.StatusCode, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" || h["jobs"] != float64(0) {
		t.Fatalf("healthz after bad specs: status %d, %v; want 200, ok and no jobs", resp.StatusCode, h)
	}
}

// TestPathSourcesRejectedByDefault pins the security default: a
// network client must not be able to point jobs at server files.
func TestPathSourcesRejectedByDefault(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := []byte(`{"source":"/etc/hosts"}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("path source: status %d, want 400", resp.StatusCode)
	}
}

// TestSubmitAfterCloseRejected pins the shutdown contract: a
// submission racing Close gets a 503, never a leaked job goroutine.
func TestSubmitAfterCloseRejected(t *testing.T) {
	svc, ts := startServer(t, Config{})
	svc.Close()
	body := []byte(`{"source":"gnm:100:300"}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestSpecParityAcrossSurfaces is the acceptance check for the one-spec
// redesign: a job submitted as JSON to the service and a library
// Spec.Run with identical parameters share the identical canonical key
// and a byte-identical extracted subgraph (the CLI's -json path is
// pinned against the same canonical in the root cli_test).
func TestSpecParityAcrossSurfaces(t *testing.T) {
	_, ts := startServer(t, Config{})

	libSpec := chordal.Spec{
		Source:       "rmat-g:9:5",
		EngineConfig: chordal.EngineConfig{Repair: true},
		Verify:       true,
	}
	libCanon, err := libSpec.Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// The service decodes the equivalent JSON request to the same key.
	js, err := newJobSpec(JobRequest{
		Source:  " RMAT-G:9:5 ",
		Options: JobOptions{EngineConfig: chordal.EngineConfig{Repair: true}},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if js.Key() != libCanon {
		t.Fatalf("service key\n %s\nlibrary canonical\n %s", js.Key(), libCanon)
	}

	// And the job's extracted bytes match the library run's.
	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "rmat-g:9:5", Options: JobOptions{EngineConfig: chordal.EngineConfig{Repair: true}}})
	if _, done := followEvents(t, ts.URL, st.ID); done.State != StateDone {
		t.Fatalf("service job: %s (%s)", done.State, done.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	res, err := libSpec.Run()
	if err != nil {
		t.Fatal(err)
	}
	var lib bytes.Buffer
	if err := graph.WriteBinary(&lib, res.Subgraph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, lib.Bytes()) {
		t.Fatalf("service result (%d bytes) differs from library Spec.Run (%d bytes)",
			len(served), lib.Len())
	}
}

// TestResultCacheByteBounded pins the byte budget: with a budget too
// small for any subgraph, completed results are never retained, so an
// identical resubmission runs fresh instead of hitting the cache.
func TestResultCacheByteBounded(t *testing.T) {
	svc, ts := startServer(t, Config{ResultCacheBytes: 64})

	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:500:1500"})
	if _, done := followEvents(t, ts.URL, st.ID); done.State != StateDone {
		t.Fatalf("job: %s", done.State)
	}
	if n := svc.results.Len(); n != 0 {
		t.Fatalf("result cache holds %d entries under a 64-byte budget", n)
	}
	again, code := submitJSON(t, ts.URL, JobRequest{Source: "gnm:500:1500"})
	if code != http.StatusAccepted || again.ID == st.ID {
		t.Fatalf("resubmission: code %d id %s, want a fresh 202 job (no cache to hit)", code, again.ID)
	}
	if _, done := followEvents(t, ts.URL, again.ID); done.State != StateDone {
		t.Fatalf("rerun job: %s", done.State)
	}

	// The generated-input cache ran under the default budget and did
	// retain the input, charged at CSR size.
	if svc.inputs.Len() < 1 || svc.inputs.Bytes() == 0 {
		t.Errorf("input cache len=%d bytes=%d, want the generated graph retained",
			svc.inputs.Len(), svc.inputs.Bytes())
	}
}

// TestHealthz checks the liveness endpoint's counters move.
func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Config{})
	st, _ := submitJSON(t, ts.URL, JobRequest{Source: "gnm:500:1500"})
	followEvents(t, ts.URL, st.ID)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h map[string]any
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h["status"] != "ok" {
			t.Fatalf("healthz status = %v", h["status"])
		}
		if _, ok := h["inputCacheBudgetBytes"]; !ok {
			t.Fatalf("healthz misses the cache byte budget: %v", h)
		}
		if _, ok := h["resultCacheBytes"]; !ok {
			t.Fatalf("healthz misses the cache byte occupancy: %v", h)
		}
		if h["done"].(float64) >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported a done job: %v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
