package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/rmat"
)

// openStream posts a StreamOpenRequest and decodes the session status.
func openStream(t *testing.T, base string, req StreamOpenRequest) (StreamStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/streams", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/streams: %v", err)
	}
	defer resp.Body.Close()
	var st StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode open response: %v", err)
	}
	return st, resp.StatusCode
}

// TestStreamSessionEndToEnd drives the full session flow: open, push
// NDJSON deltas, follow admission SSE, close for the canonical report,
// download the result, and byte-compare it with the library running the
// same spec on the same edges.
func TestStreamSessionEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{})

	g, err := rmat.Generate(rmat.PresetParams(rmat.ER, 7, 3))
	if err != nil {
		t.Fatal(err)
	}

	st, code := openStream(t, ts.URL, StreamOpenRequest{
		Options:  JobOptions{EngineConfig: chordal.EngineConfig{Repair: true}},
		Vertices: g.NumVertices(),
	})
	if code != http.StatusCreated || st.State != StreamOpen {
		t.Fatalf("open: code %d state %s", code, st.State)
	}
	// Session identity is the library's canonical stream key.
	wantCanon, err := chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}, Verify: true}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if st.Canonical != wantCanon {
		t.Fatalf("canonical:\n got  %s\n want %s", st.Canonical, wantCanon)
	}

	// Push the graph in two NDJSON batches, mixing the two line forms.
	us, vs := g.EdgeList()
	half := len(us) / 2
	var b1, b2 strings.Builder
	b1.WriteString("# first half\n")
	for i := 0; i < half; i++ {
		fmt.Fprintf(&b1, "%d %d\n", us[i], vs[i])
	}
	for i := half; i < len(us); i++ {
		fmt.Fprintf(&b2, "{\"u\":%d,\"v\":%d}\n", us[i], vs[i])
	}
	var pushed int
	for _, body := range []string{b1.String(), b2.String()} {
		resp, err := http.Post(ts.URL+"/v1/streams/"+st.ID+"/edges", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var res DeltaBatchResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("edges: HTTP %d", resp.StatusCode)
		}
		if len(res.Decisions) != res.Applied {
			t.Fatalf("edges: %d decisions for %d applied", len(res.Decisions), res.Applied)
		}
		pushed += res.Applied
	}
	if int64(pushed) != g.NumEdges() {
		t.Fatalf("pushed %d deltas, want %d", pushed, g.NumEdges())
	}

	// A malformed delta line 400s and reports the applied count; lines
	// before it stay applied (deltas are not transactional), so re-push
	// an already-streamed edge to keep the accumulated input unchanged.
	resp, err := http.Post(ts.URL+"/v1/streams/"+st.ID+"/edges", "application/x-ndjson",
		strings.NewReader(fmt.Sprintf("%d %d\nnot a delta\n", us[0], vs[0])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed delta: HTTP %d, want 400", resp.StatusCode)
	}

	// Close: the canonical report, idempotent on a second call.
	var rep chordal.StreamReport
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/streams/"+st.ID+"/close", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("close #%d: HTTP %d", i+1, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if rep.Canonical != wantCanon {
		t.Fatalf("report canonical %q, want %q", rep.Canonical, wantCanon)
	}
	if rep.Verify == nil || !rep.Verify.Chordal {
		t.Fatalf("close verify: %+v", rep.Verify)
	}
	if rep.Input.Edges != g.NumEdges() || rep.Input.Vertices != g.NumVertices() {
		t.Fatalf("accumulated input %d/%d, want %d/%d", rep.Input.Vertices, rep.Input.Edges, g.NumVertices(), g.NumEdges())
	}

	// The SSE log replays admissions through the terminal done event.
	counts, _ := followStreamEvents(t, ts.URL, st.ID)
	if counts["admit"] == 0 || counts["done"] != 1 {
		t.Fatalf("event counts %v: want admits and one done", counts)
	}
	if int64(counts["admit"]+counts["defer"]) < g.NumEdges() {
		t.Fatalf("event counts %v cover %d deltas, want >= %d", counts, counts["admit"]+counts["defer"], g.NumEdges())
	}

	// Download and byte-compare with the library path on the same edges.
	resp, err = http.Get(ts.URL + "/v1/streams/" + st.ID + "/result?format=edges")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	lib, err := chordal.OpenStream(context.Background(),
		chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}, Verify: true},
		chordal.StreamConfig{Vertices: g.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range us {
		if _, err := lib.Push(context.Background(), us[i], vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	libRes, err := lib.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := graph.WriteEdgeList(&want, libRes.Subgraph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served result differs from the library's canonical subgraph (%d vs %d bytes)", len(served), want.Len())
	}

	// Pushing into a closed session conflicts.
	resp, err = http.Post(ts.URL+"/v1/streams/"+st.ID+"/edges", "application/x-ndjson", strings.NewReader("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("push after close: HTTP %d, want 409", resp.StatusCode)
	}
}

// followStreamEvents consumes the session SSE stream to the done event.
func followStreamEvents(t *testing.T, base, id string) (map[string]int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/streams/" + id + "/events")
	if err != nil {
		t.Fatalf("GET stream events: %v", err)
	}
	defer resp.Body.Close()
	counts := map[string]int{}
	var event string
	var done []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			counts[event]++
			if event == "done" {
				done = []byte(strings.TrimPrefix(line, "data: "))
				return counts, done
			}
		}
	}
	t.Fatalf("stream event feed ended without done (err=%v, counts=%v)", sc.Err(), counts)
	return nil, nil
}

// TestStreamValidationAndLifecycle covers open-time validation, the
// jobs endpoint redirecting stream specs, delete, and GC of idle and
// terminal sessions.
func TestStreamValidationAndLifecycle(t *testing.T) {
	svc, ts := startServer(t, Config{JobTTL: 50 * time.Millisecond})

	// Stream specs are not jobs.
	if _, code := submitJSON(t, ts.URL, JobRequest{Source: "gnm:100:300:1", Options: JobOptions{Mode: "stream"}}); code != http.StatusBadRequest {
		t.Fatalf("mode=stream job: HTTP %d, want 400", code)
	}
	// Open-time spec validation surfaces as a 400.
	if _, code := openStream(t, ts.URL, StreamOpenRequest{Options: JobOptions{Relabel: "bfs"}}); code != http.StatusBadRequest {
		t.Fatalf("relabel stream: HTTP %d, want 400", code)
	}
	if _, code := openStream(t, ts.URL, StreamOpenRequest{Options: JobOptions{Engine: "serial"}}); code != http.StatusBadRequest {
		t.Fatalf("serial stream: HTTP %d, want 400", code)
	}

	// Result of an open session is a conflict; delete abandons it.
	st, code := openStream(t, ts.URL, StreamOpenRequest{})
	if code != http.StatusCreated {
		t.Fatalf("open: HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/streams/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while open: HTTP %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/streams/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	if _, ok := svc.lookupStream(st.ID); ok {
		t.Fatal("deleted session still in the store")
	}

	// GC: an idle open session and a closed one both age out.
	idle, _ := openStream(t, ts.URL, StreamOpenRequest{})
	closed, _ := openStream(t, ts.URL, StreamOpenRequest{})
	if resp, err := http.Post(ts.URL+"/v1/streams/"+closed.ID+"/close", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	time.Sleep(60 * time.Millisecond)
	svc.gcSweep(time.Now())
	if _, ok := svc.lookupStream(idle.ID); ok {
		t.Fatal("idle open session survived the GC sweep")
	}
	if _, ok := svc.lookupStream(closed.ID); ok {
		t.Fatal("closed session survived the GC sweep")
	}
}
