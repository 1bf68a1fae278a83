package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chordal"
	"chordal/internal/graph"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself to time set-up in a fresh process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // exactly 10 samples above
		{99, 0.9, 90, false}, // 9 above
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{3, 0.5, 2, true}, // the median needs no tail
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %t; want %g, %t", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as reportable")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestFailShareCountsRefusalsAndFailedChecks(t *testing.T) {
	res := &result{}
	outcomes := []jobOutcome{
		{kind: "hit", latency: time.Millisecond},
		{refused: true},
		{kind: "miss", err: errCheck},
		{kind: "miss", err: context.DeadlineExceeded},
		{kind: "miss", latency: 2 * time.Millisecond},
	}
	for _, o := range outcomes {
		account(res, o, false)
	}
	if res.tally.attempted != 5 || res.tally.failed() != 3 || res.tally.refused != 1 || res.tally.checkFailed != 1 {
		t.Fatalf("tally = %+v, want 5 attempted, 3 failed (1 refused, 1 check)", res.tally)
	}
	if got := res.tally.failShare(); got != 0.6 {
		t.Errorf("failShare = %g, want 0.6", got)
	}
	if len(res.opMs) != 2 {
		t.Errorf("completed latencies = %v, want 2", res.opMs)
	}
}

func TestSteadyVerdict(t *testing.T) {
	// A lower-is-better metric whose second set reads 20% higher is 20%
	// worse; a higher-is-better one reading 20% higher is better.
	v := verdict([]float64{10, 10, 10}, []float64{12, 12, 12}, "lower", 0.25, true)
	if !v.Agree || v.Worse < 0.19 || v.Worse > 0.21 {
		t.Errorf("lower: %+v, want worse 0.2 and agreeing", v)
	}
	if v := verdict([]float64{10, 10, 10}, []float64{12, 12, 12}, "higher", 0.1, true); !v.Agree || v.Worse > -0.19 {
		t.Errorf("higher: %+v, want better and agreeing", v)
	}
	if v := verdict([]float64{10, 10, 10}, []float64{13, 13, 13}, "lower", 0.25, true); v.Agree {
		t.Errorf("30%% worse against a 25%% bound agreed: %+v", v)
	}
	if v := verdict([]float64{1, 2, 3}, []float64{4, 5, 6}, "lower", 0.25, true); v.Steady {
		t.Errorf("a wide spread read steady: %+v", v)
	}
}

func TestRefusedSubmissionIsReported(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	b := &serviceBench{specs: []svcSpec{{"gnm:10:20:1", "none"}}, refs: []uint64{0}, client: ts.Client()}
	reg := &jobRegistry{seen: map[string]bool{}}
	o := b.job(context.Background(), ts.URL, "t", 0, reg, nil)
	if !o.refused || o.err != nil {
		t.Fatalf("outcome = %+v, want refused without error", o)
	}
}

func TestSelfTimeSubtractsChildOverlap(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{op: 0, id: 0, parent: -1, name: rootSpan, start: at(0), end: at(100)},
		{op: 0, id: 1, parent: 0, name: "service.events", start: at(10), end: at(90)},
		// Two overlapping children cover 20..60 once, not 60ms twice.
		{op: 0, id: 2, parent: 1, name: "core.extract", start: at(20), end: at(50)},
		{op: 0, id: 3, parent: 1, name: "quality.compute", start: at(30), end: at(60)},
		// A child reaching past its parent only counts inside it.
		{op: 0, id: 4, parent: 1, name: "verify.stage", start: at(80), end: at(95)},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(20), at(80 - 40 - 10), at(30), at(30), at(15)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
	sum := summarize(spans)
	if sum.ops != 1 || sum.opWall != at(100) {
		t.Errorf("summary ops=%d wall=%v, want 1, 100ms", sum.ops, sum.opWall)
	}
	if got := sum.perOpMs("core.extract"); got != 30 {
		t.Errorf("core.extract per op = %g ms, want 30", got)
	}
}

func TestIsChordal(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"ktree:60:3:1", true},
		{"ws:60:4:0.0:1", false}, // a ring lattice has long induced cycles
	} {
		g := loadSource(t, tc.src)
		if got := isChordal(g); got != tc.want {
			t.Errorf("isChordal(%s) = %t, want %t", tc.src, got, tc.want)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("workload %d %q is unknown", i, w.Name)
		}
	}
	same := func(list string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d] = %+v, want %+v", list, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
}

// TestWorkloadSmoke runs every workload at tiny size, untraced and
// traced, and checks the result line's shape.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--tiny", "--seed", "3", "--seconds", "0.2", "--trace", trace}
			if code := run(args, &out, &errOut); code != 0 {
				t.Errorf("%s trace=%s: exit %d: %s", w.name, trace, code, errOut.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rl resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
				t.Errorf("%s trace=%s: last line: %v", w.name, trace, err)
				continue
			}
			if !rl.Correct || rl.Attempted < 1 || rl.Failed != 0 {
				t.Errorf("%s trace=%s: result %+v", w.name, trace, rl)
			}
			want := e2eMetrics
			if trace == "1" {
				want = layerMetrics
			}
			if len(rl.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(rl.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rl.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s = %+v", w.name, trace, m.name, got)
				}
			}
			if trace == "0" {
				for _, m := range e2eMetrics {
					if rl.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g", w.name, m.name, rl.Metrics[m.name].Value)
					}
				}
			} else if c := rl.Metrics["trace.coverage"].Value; c <= 0.5 || c > 1.0001 {
				t.Errorf("%s: trace.coverage = %g", w.name, c)
			}
		}
	}
}

// loadSource acquires a generator source.
func loadSource(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	src, err := chordal.ParseSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
