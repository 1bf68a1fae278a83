package main

import (
	"fmt"
	"io"
	"sort"
)

// metricSpec names one reported metric: its unit and which direction is
// better. The end-to-end and per-layer lists mirror BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// e2eMetrics are the end-to-end metrics every workload reports with
// tracing off. Each is non-zero on every workload.
var e2eMetrics = []metricSpec{
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"edges_kept_pct", "%", "higher"},
}

// layerMetrics are the per-layer metrics of the traced run. Times are
// milliseconds of self time per operation, counts are per operation,
// unless the name says otherwise. A layer a workload does not exercise
// reads 0.
var layerMetrics = []metricSpec{
	{"source.acquire_ms", "ms", "lower"},
	{"analysis.relabel_ms", "ms", "lower"},
	{"core.extract_ms", "ms", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.edges_tested", "count", "lower"},
	{"core.scan_work", "count", "lower"},
	{"core.accept_ratio", "ratio", "higher"},
	{"core.scan_work_per_ms", "1/ms", "higher"},
	{"shard.extract_ms", "ms", "lower"},
	{"shard.border_edges", "count", "lower"},
	{"shard.border_bridges", "count", "higher"},
	{"shard.border_admitted", "count", "higher"},
	{"shard.border_admit_ratio", "ratio", "higher"},
	{"shard.edge_cut_pct", "%", "lower"},
	{"stream.push_ms", "ms", "lower"},
	{"stream.repair_ms", "ms", "lower"},
	{"stream.close_ms", "ms", "lower"},
	{"stream.admit_ratio", "ratio", "higher"},
	{"stream.repaired", "count", "higher"},
	{"stream.deferred", "count", "lower"},
	{"verify.chordal_ms", "ms", "lower"},
	{"verify.audit_ms", "ms", "lower"},
	{"verify.stage_ms", "ms", "lower"},
	{"quality.compute_ms", "ms", "lower"},
	{"quality.fill_computed_share", "ratio", "higher"},
	{"graph.write_ms", "ms", "lower"},
	{"graph.write_bytes", "B", "lower"},
	{"chordal.stats_ms", "ms", "lower"},
	{"chordal.unaccounted_ms", "ms", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.hit_ms_p50", "ms", "lower"},
	{"service.miss_ms_p50", "ms", "lower"},
	{"service.result_ms_p50", "ms", "lower"},
	{"service.result_bytes", "B", "lower"},
	{"service.hit_share", "ratio", "higher"},
	{"service.join_share", "ratio", "higher"},
	{"service.input_hit_share", "ratio", "higher"},
	{"sched.queue_wait_ms_p50", "ms", "lower"},
	{"sched.queue_wait_ms_p90", "ms", "lower"},
	{"sched.shed", "count", "lower"},
	{"tune.calibrate_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
}

// spanMetrics maps the per-layer time metrics onto the span names whose
// self time they report.
var spanMetrics = map[string]string{
	"source.acquire_ms":   "source.acquire",
	"analysis.relabel_ms": "analysis.relabel",
	"core.extract_ms":     "core.extract",
	"shard.extract_ms":    "shard.extract",
	"stream.push_ms":      "stream.push",
	"stream.repair_ms":    "stream.repair",
	"stream.close_ms":     "stream.close",
	"verify.chordal_ms":   "verify.chordal",
	"verify.audit_ms":     "verify.audit",
	"quality.compute_ms":  "quality.compute",
	"graph.write_ms":      "graph.write",
	"chordal.stats_ms":    "chordal.stats",
}

// endToEnd computes the end-to-end metrics of a run.
func endToEnd(res *result, setupS float64) map[string]float64 {
	ops := len(res.opMs) + len(res.tracedMs)
	m := map[string]float64{
		"op_ms_p50":      median(res.opMs),
		"setup_s":        setupS,
		"peak_rss_mb":    median(res.peakMB),
		"edges_kept_pct": res.keptPct,
	}
	if res.window > 0 {
		m["ops_per_s"] = float64(ops) / res.window.Seconds()
	}
	return m
}

// perLayer computes the per-layer metrics of a traced run from the
// workload's own counters and the span summary.
func perLayer(res *result, sum traceSummary, calibrateMs float64) map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for k, v := range res.layer {
		m[k] = v
	}
	for metric, name := range spanMetrics {
		m[metric] = sum.perOpMs(name)
	}
	// The library workloads time the verify calls one by one; the
	// service reports its verify stage whole.
	m["verify.stage_ms"] = sum.perOpMs("verify.stage") + m["verify.chordal_ms"] + m["verify.audit_ms"]
	if ms := m["core.extract_ms"]; ms > 0 {
		m["core.scan_work_per_ms"] = m["core.scan_work"] / ms
	}
	m["tune.calibrate_ms"] = calibrateMs
	m["trace.coverage"] = sum.coverage()
	if u := median(res.opMs); u > 0 {
		m["trace.overhead"] = median(res.tracedMs) / u
	}
	return m
}

// jsonMetrics renders values in the result line's shape; a metric the
// run did not produce reads 0.
func jsonMetrics(specs []metricSpec, values map[string]float64) map[string]any {
	out := make(map[string]any, len(specs))
	for _, s := range specs {
		out[s.name] = map[string]any{"value": values[s.name], "unit": s.unit}
	}
	return out
}

// printTable prints one "# name value unit" line per metric.
func printTable(w io.Writer, title string, specs []metricSpec, values map[string]float64) {
	fmt.Fprintf(w, "# %s metrics\n", title)
	for _, s := range specs {
		fmt.Fprintf(w, "#   %-28s %14.4f %s\n", s.name, values[s.name], s.unit)
	}
}

// printWorkloadScoped prints the end-to-end metrics that exist only on
// some workloads (so BENCHMARK.json cannot bound them) and fail_share,
// which is 0 on a healthy run.
func printWorkloadScoped(w io.Writer, workload string, res *result) {
	fmt.Fprintf(w, "#   %-28s %14.4f share (%d of %d operations)\n", "fail_share",
		res.tally.failShare(), res.tally.failed(), res.tally.attempted)
	pct := func(name string, xs []float64, p float64, unit string) {
		v, ok := percentile(xs, p)
		if !ok {
			fmt.Fprintf(w, "#   %-28s %14s %s (n=%d: fewer than %d samples above it)\n", name, "n/a", unit, len(xs), minAbove)
			return
		}
		fmt.Fprintf(w, "#   %-28s %14.4f %s (n=%d)\n", name, v, unit, len(xs))
	}
	switch workload {
	case "service-bio":
		pct("op_ms_p90", res.opMs, 0.9, "ms")
	case "stream-ingest":
		pct("delta_us_p50", res.deltaUs, 0.5, "us")
		pct("delta_us_p99", res.deltaUs, 0.99, "us")
	}
}

// heavyShare is the share of traced wall time from which a layer counts
// as heavily loaded.
const heavyShare = 0.10

// printShares prints each layer's share of the traced operations' wall
// time, largest first, and the part no layer covers, marking whether
// each layer the workload expects to be heavy or light is.
func printShares(w io.Writer, sum traceSummary, wl workload) {
	if sum.opWall <= 0 {
		return
	}
	type share struct {
		layer string
		v     float64
	}
	var shares []share
	for layer, d := range sum.byLayer {
		shares = append(shares, share{layer, float64(d) / float64(sum.opWall)})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	fmt.Fprintf(w, "# layer shares of traced operation wall time (%d operations)\n", sum.ops)
	expect := make(map[string]string)
	for _, l := range wl.heavy {
		expect[l] = "heavy"
	}
	for _, l := range wl.light {
		expect[l] = "light"
	}
	for _, l := range append(append([]string(nil), wl.heavy...), wl.light...) {
		if _, seen := sum.byLayer[l]; !seen {
			shares = append(shares, share{l, 0})
		}
	}
	for _, s := range shares {
		note := ""
		if e, ok := expect[s.layer]; ok {
			verdict := "agrees"
			if (e == "heavy") != (s.v >= heavyShare) {
				verdict = "DIFFERS"
			}
			note = fmt.Sprintf("expected %s: %s", e, verdict)
		}
		fmt.Fprintf(w, "#   %-28s %8.4f %s\n", s.layer, s.v, note)
	}
	fmt.Fprintf(w, "#   %-28s %8.4f\n", "(uncovered)", 1-sum.coverage())
}
