package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"chordal"
)

// TestJobReportMatchesLibrary pins the service to the library's one run
// summary: for every engine, a done job's report is chordal.Report of
// the same spec run by Runner.Run at the same width (the server's
// one worker fills its one slot), apart from wall-clock times, and
// a cache-hit resubmission returns the same report.
func TestJobReportMatchesLibrary(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	const source = "rmat-g:9:5"
	for _, tc := range []struct {
		options string
		engine  string
		cfg     chordal.EngineConfig
	}{
		{`{}`, "parallel", chordal.EngineConfig{}},
		{`{"repair":true}`, "parallel", chordal.EngineConfig{Repair: true}},
		{`{"engine":"sharded","shards":3}`, "sharded", chordal.EngineConfig{Shards: 3}},
		{`{"engine":"dearing","start":3}`, "dearing", chordal.EngineConfig{Start: 3}},
		{`{"engine":"elimination","order":"natural"}`, "elimination", chordal.EngineConfig{Order: "natural"}},
		{`{"engine":"partitioned","partitions":2}`, "partitioned", chordal.EngineConfig{Partitions: 2}},
	} {
		body := fmt.Sprintf(`{"source":%q,"options":%s}`, source, tc.options)
		post := func() (JobStatus, int) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatalf("%s: POST: %v", tc.options, err)
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("%s: decode: %v", tc.options, err)
			}
			return st, resp.StatusCode
		}
		st, code := post()
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d, want 202", tc.options, code)
		}
		_, done := followEvents(t, ts.URL, st.ID)
		if done.State != StateDone || done.Report == nil {
			t.Fatalf("%s: job %s (error %q), report %v", tc.options, done.State, done.Error, done.Report)
		}

		tc.cfg.Workers = 1
		spec := chordal.Spec{Source: source, Engine: tc.engine, EngineConfig: tc.cfg, Verify: true}
		res, err := chordal.Runner{}.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: library run: %v", tc.options, err)
		}
		want, err := chordal.Report(spec, res)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := untimed(t, *done.Report), untimed(t, want); got != want {
			t.Errorf("%s: job report differs from the library's\n got %s\nwant %s", tc.options, got, want)
		}

		hit, code := post()
		if code != http.StatusOK || hit.ID != st.ID || !reflect.DeepEqual(hit.Report, done.Report) {
			t.Errorf("%s: resubmission: status %d, job %s, report %+v; want a 200 hit on %s with the same report",
				tc.options, code, hit.ID, hit.Report, st.ID)
		}
	}
}

// untimed renders a report as JSON without its wall-clock fields, the
// only ones two runs of one spec at one worker may differ in.
func untimed(t *testing.T, r chordal.RunReport) string {
	t.Helper()
	r.Timings, r.TotalMillis = nil, 0
	if r.Extraction != nil {
		ex := *r.Extraction
		ex.SerialMillis = 0
		r.Extraction = &ex
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
