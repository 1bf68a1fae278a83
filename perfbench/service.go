package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"chordal"
	"chordal/internal/graph"
	"chordal/internal/service"
)

// Service-bio traffic shape: two clients, one tenant each, and per
// round every distinct spec submitted once cold plus serviceRepeats
// exact repeats, in an order drawn from the run's seed.
const (
	serviceClients = 2
	serviceRepeats = 3
)

// bioNetworks are the four GEO-modelled networks of the paper.
var bioNetworks = []string{"gse5140-crt", "gse5140-unt", "gse17072-ctl", "gse17072-non"}

var serviceBio = workload{
	name:  "service-bio",
	why:   "two tenants' chordald jobs over the four GEO-modelled networks: mostly result-cache hits, plus cold and input-cache-only misses",
	heavy: []string{"quality"},
	light: []string{"sched", "core", "source", "analysis", "verify"},
	setup: func(cfg config) (bench, error) {
		downscale := 8
		if cfg.tiny {
			downscale = 64
		}
		b := &serviceBench{seed: cfg.seed, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}}
		for _, net := range bioNetworks {
			// The networks model fixed public datasets, so their generator
			// seed stays at its default; the run's seed draws the traffic.
			src := fmt.Sprintf("%s:%d", net, downscale)
			// The degree-relabelled job shares its input with the plain one,
			// so whichever runs second hits only the input cache.
			b.specs = append(b.specs, svcSpec{src, "none"}, svcSpec{src, "degree"})
		}
		if err := b.start(); err != nil {
			return nil, err
		}
		return b, nil
	},
}

// svcSpec is one distinct job: a source and its relabel option.
type svcSpec struct{ source, relabel string }

// serviceBench drives an in-process chordald. Each round starts a fresh
// server, so every round has cold jobs again, and checks every result
// against the library's Runner.Run of the same spec.
type serviceBench struct {
	seed   int64
	specs  []svcSpec
	refs   []uint64
	kept   []float64
	client *http.Client
	srv    *service.Server
	ts     *httptest.Server
}

// start brings up a fresh server and waits until it answers.
func (b *serviceBench) start() error {
	b.srv = service.New(service.Config{})
	b.ts = httptest.NewServer(b.srv)
	resp, err := b.client.Get(b.ts.URL + "/healthz")
	if err != nil {
		b.stop()
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.stop()
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop shuts the current server down.
func (b *serviceBench) stop() {
	if b.ts != nil {
		b.ts.Close()
		b.srv.Close()
		b.ts, b.srv = nil, nil
	}
	b.client.CloseIdleConnections()
}

func (b *serviceBench) close() { b.stop() }

// reference runs every distinct spec through the library's Runner.Run,
// two at a time.
func (b *serviceBench) reference(ctx context.Context) error {
	b.refs = make([]uint64, len(b.specs))
	b.kept = make([]float64, len(b.specs))
	errs := make([]error, len(b.specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, serviceClients)
	for i, sp := range b.specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sp svcSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := chordal.Runner{}.Run(ctx, chordal.Spec{Source: sp.source, Relabel: sp.relabel, Verify: true})
			switch {
			case err != nil:
				errs[i] = err
			case !isChordal(res.Subgraph):
				errs[i] = fmt.Errorf("reference subgraph of %s relabel=%s is not chordal", sp.source, sp.relabel)
			default:
				b.refs[i] = edgeHash(res.Subgraph)
				b.kept[i] = 100 * float64(res.Subgraph.NumEdges()) / float64(res.InputStats.Edges)
			}
		}(i, sp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// plan returns a round's seeded job order: each spec once cold plus its
// repeats.
func (b *serviceBench) plan(round int) []int {
	var jobs []int
	for i := range b.specs {
		for k := 0; k <= serviceRepeats; k++ {
			jobs = append(jobs, i)
		}
	}
	rng := rand.New(rand.NewSource(b.seed*1000003 + int64(round)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// jobOutcome is what one client observed of one job.
type jobOutcome struct {
	// kind is "hit" (HTTP 200), "join" (202 onto a job another request
	// already started) or "miss" (202, a new job).
	kind     string
	inputHit bool
	refused  bool
	err      error
	// latency is submit to result fetched; submit and result are the two
	// plain round trips.
	latency, submit, result time.Duration
	resultBytes             int
	queueWaitMs             float64
	admitted                bool
}

// jobRegistry remembers the job ids a round has seen, to tell a
// single-flight join from a new job.
type jobRegistry struct {
	mu   sync.Mutex
	seen map[string]bool
}

// add records id and reports whether it was new.
func (r *jobRegistry) add(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[id] {
		return false
	}
	r.seen[id] = true
	return true
}

func (b *serviceBench) measure(ctx context.Context, deadline time.Time, tr *tracer, mem *memSampler) (*result, error) {
	res := &result{keptPct: mean(b.kept)}
	var traced []jobOutcome
	start := time.Now()
	for round := 0; round < minOps(tr) || time.Now().Before(deadline); round++ {
		if b.ts == nil {
			if err := b.start(); err != nil {
				return nil, err
			}
		}
		var t *tracer
		if tr != nil && round%2 == 1 {
			t = tr
		}
		outs := b.round(ctx, b.plan(round), t)
		b.stop()
		res.peakMB = append(res.peakMB, mem.take())
		for _, o := range outs {
			if account(res, o, t != nil) {
				traced = append(traced, o)
			}
		}
	}
	res.window = time.Since(start)
	if tr != nil {
		res.layer = serviceLayers(traced)
		res.layer["sched.shed"] = float64(res.tally.refused)
	}
	return res, nil
}

// account adds one job's outcome to res: a refusal (429), an error or a
// failed check counts as a failed operation; a completed job adds its
// latency. It reports whether the job completed in a traced round.
func account(res *result, o jobOutcome, traced bool) bool {
	res.tally.attempted++
	switch {
	case o.refused:
		res.tally.refused++
	case errors.Is(o.err, errCheck):
		res.tally.checkFailed++
	case o.err != nil:
		res.tally.errors++
		fmt.Fprintln(os.Stderr, "perfbench: service job:", o.err)
	case traced:
		res.tracedMs = append(res.tracedMs, ms(o.latency))
		return true
	default:
		res.opMs = append(res.opMs, ms(o.latency))
	}
	return false
}

// serviceLayers computes the service and scheduler metrics of the
// traced jobs.
func serviceLayers(outs []jobOutcome) map[string]float64 {
	var submit, result, hit, miss, wait, bytes []float64
	var hits, joins, inputHits float64
	for _, o := range outs {
		submit = append(submit, ms(o.submit))
		result = append(result, ms(o.result))
		bytes = append(bytes, float64(o.resultBytes))
		switch o.kind {
		case "hit":
			hits++
			hit = append(hit, ms(o.latency))
		case "join":
			joins++
		case "miss":
			miss = append(miss, ms(o.latency))
			if o.inputHit {
				inputHits++
			}
			if o.admitted {
				wait = append(wait, o.queueWaitMs)
			}
		}
	}
	reportable := func(xs []float64, p float64) float64 {
		v, ok := percentile(xs, p)
		if !ok {
			return 0
		}
		return v
	}
	m := map[string]float64{
		"service.submit_ms_p50":   median(submit),
		"service.result_ms_p50":   median(result),
		"service.hit_ms_p50":      median(hit),
		"service.miss_ms_p50":     median(miss),
		"service.result_bytes":    mean(bytes),
		"sched.queue_wait_ms_p50": median(wait),
		"sched.queue_wait_ms_p90": reportable(wait, 0.9),
	}
	if n := float64(len(outs)); n > 0 {
		m["service.hit_share"] = hits / n
		m["service.join_share"] = joins / n
		m["service.input_hit_share"] = inputHits / n
	}
	return m
}

// round runs the whole plan on the current server with serviceClients
// closed-loop clients, each its own tenant. Rounds are never cut short,
// so every round has the same mix of hits, joins and misses.
func (b *serviceBench) round(ctx context.Context, plan []int, tr *tracer) []jobOutcome {
	reg := &jobRegistry{seen: make(map[string]bool)}
	var mu sync.Mutex
	var outs []jobOutcome
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(plan) {
					mu.Unlock()
					return
				}
				spec := plan[next]
				next++
				mu.Unlock()
				o := b.job(ctx, b.ts.URL, tenant, spec, reg, tr)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(fmt.Sprintf("tenant-%d", c+1))
	}
	wg.Wait()
	return outs
}

// stageSpans maps the service's pipeline stage names onto span names.
var stageSpans = map[string]string{
	"acquire": "source.acquire",
	"relabel": "analysis.relabel",
	"extract": "core.extract",
	"verify":  "verify.stage",
}

// job submits one job, follows its events to done and fetches its
// result, checking it against the reference. With a tracer it records
// the round trips and, under the event stream's span, the transitions
// the events report: queue wait, each stage, and the silent stretch
// between verify and done, which is the quality probe.
func (b *serviceBench) job(ctx context.Context, base, tenant string, spec int, reg *jobRegistry, tr *tracer) (o jobOutcome) {
	start := time.Now()
	op, root := 0, -1
	if tr != nil {
		op, root = tr.newOp(start)
	}
	span := func(name string, parent int, t0, t1 time.Time) {
		if tr != nil {
			tr.record(op, parent, name, t0, t1)
		}
	}
	// The operation ends when the result's last byte arrives; checking it
	// is the benchmark's work, not the service's.
	var end time.Time
	defer func() {
		if end.IsZero() {
			end = time.Now()
		}
		o.latency = end.Sub(start)
		if tr != nil {
			tr.close(root, end)
		}
	}()

	sp := b.specs[spec]
	// A struct of strings always marshals.
	body, _ := json.Marshal(service.JobRequest{Source: sp.source, Options: service.JobOptions{Relabel: sp.relabel}})
	code, raw, err := b.do(ctx, http.MethodPost, base+"/v1/jobs", tenant, body)
	t1 := time.Now()
	o.submit = t1.Sub(start)
	span("service.submit", root, start, t1)
	if err != nil {
		o.err = err
		return o
	}
	switch code {
	case http.StatusOK:
		o.kind = "hit"
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		o.refused = true
		return o
	default:
		o.err = fmt.Errorf("submit: HTTP %d: %s", code, raw)
		return o
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	if o.kind == "" {
		o.kind = "join"
		if reg.add(st.ID) {
			o.kind = "miss"
		}
	} else {
		reg.add(st.ID)
	}

	evStart := time.Now()
	evSpan := -1
	if tr != nil {
		evSpan = tr.open(op, root, "service.events", evStart)
	}
	err = b.follow(ctx, base+"/v1/jobs/"+st.ID+"/events", tenant, evStart, &o, func(name string, t0, t1 time.Time) {
		span(name, evSpan, t0, t1)
	})
	if tr != nil {
		tr.close(evSpan, time.Now())
	}
	if err != nil {
		o.err = err
		return o
	}

	r0 := time.Now()
	code, raw, err = b.do(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result?format=bin", tenant, nil)
	r1 := time.Now()
	end = r1
	o.result = r1.Sub(r0)
	span("service.result", root, r0, r1)
	if err != nil {
		o.err = err
		return o
	}
	if code != http.StatusOK {
		o.err = fmt.Errorf("result: HTTP %d: %s", code, raw)
		return o
	}
	o.resultBytes = len(raw)
	g, err := graph.ReadBinary(bytes.NewReader(raw))
	if err != nil || edgeHash(g) != b.refs[spec] {
		o.err = errCheck
	}
	return o
}

// do sends one request as tenant and returns the status and body.
func (b *serviceBench) do(ctx context.Context, method, url, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// follow reads a job's event stream until its done event, noting the
// queue wait and input-cache use in o and reporting each transition as
// a span. Server-side stage durations come from the events themselves;
// every interval is clipped to start no earlier than the stream, so
// events replayed from before this client connected cost nothing here.
func (b *serviceBench) follow(ctx context.Context, url, tenant string, from time.Time, o *jobOutcome, span func(name string, t0, t1 time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	// clip keeps the reconstructed spans in order and apart: none starts
	// before the stream opened or before the previous one ended.
	floor := from
	clip := func(t time.Time) time.Time {
		if t.Before(floor) {
			t = floor
		}
		return t
	}
	emit := func(name string, t0, t1 time.Time) {
		t0 = clip(t0)
		if t1.Before(t0) {
			t1 = t0
		}
		span(name, t0, t1)
		floor = t1
	}
	var acquireAt, verifiedAt time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	name := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			name = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev struct {
			Stage      string  `json:"stage"`
			Cached     bool    `json:"cached"`
			Millis     float64 `json:"millis"`
			WaitMillis float64 `json:"waitMillis"`
			State      string  `json:"state"`
			Error      string  `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("event %s: %w", name, err)
		}
		switch name {
		case "admitted":
			o.admitted, o.queueWaitMs = true, ev.WaitMillis
			emit("sched.queue", now.Add(-time.Duration(ev.WaitMillis*1e6)), now)
		case "stage":
			// The service acquires generated inputs itself and reports only
			// the acquire stage's start; the next stage's start ends it.
			if !acquireAt.IsZero() {
				emit("source.acquire", acquireAt, now)
				acquireAt = time.Time{}
			}
			if ev.Stage == "acquire" {
				if ev.Cached {
					o.inputHit = true
				} else {
					acquireAt = now
				}
			}
		case "stageEnd":
			if s, ok := stageSpans[ev.Stage]; ok {
				emit(s, now.Add(-time.Duration(ev.Millis*1e6)), now)
			}
			if ev.Stage == "verify" {
				verifiedAt = now
			}
		case "done":
			if ev.State != service.StateDone {
				return fmt.Errorf("job ended %s: %s", ev.State, ev.Error)
			}
			if !verifiedAt.IsZero() {
				emit("quality.compute", verifiedAt, now)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream ended before done")
}
