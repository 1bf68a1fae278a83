package chordal

import "time"

// This file defines the outcome of a finished run in its two forms:
// PipelineResult, the in-process result of Runner.Run with the engine's
// summaries, and RunReport, the machine-readable summary — one JSON
// object carrying the normalized spec, its canonical identity, input
// statistics, the engine summary, the verify outcome, and per-stage
// timings. `chordal -json` emits it on stdout so benchrunner and CI
// consume runs without scraping text.

// PartitionSummary reports the partitioned-baseline stage.
type PartitionSummary struct {
	// Parts is the partition count used.
	Parts int `json:"parts"`
	// InteriorEdges and BorderAdmitted count edges kept inside parts and
	// across the border; CleanupRemoved/CleanupRounds report the cycle
	// cleanup pass.
	InteriorEdges  int `json:"interiorEdges"`
	BorderAdmitted int `json:"borderAdmitted"`
	CleanupRemoved int `json:"cleanupRemoved"`
	CleanupRounds  int `json:"cleanupRounds"`
}

// ShardSummary reports the sharded extraction stage: how the input was
// split, what each shard's kernel did, and how the border was
// reconciled.
type ShardSummary struct {
	// Shards is the shard count actually used (after clamping).
	Shards int `json:"shards"`
	// PerShardIterations and PerShardEdges have one entry per shard:
	// the kernel's iteration count and chordal edge count. The
	// iteration counts are a diagnostic, not part of the result: at two
	// or more workers they depend on thread timing while the edges do
	// not, and a cached chordald report carries the counts of the run
	// that filled the cache.
	PerShardIterations []int `json:"perShardIterations"`
	PerShardEdges      []int `json:"perShardEdges"`
	// InteriorEdges is the merged per-shard chordal edge total before
	// border reconciliation.
	InteriorEdges int `json:"interiorEdges"`
	// BorderTotal is the number of input edges crossing shards;
	// StitchedEdges counts spanning-stitch additions (BorderBridges the
	// cross-shard subset); BorderAdmitted counts border edges admitted
	// by the exact chordality-preserving pass; RepairedEdges counts the
	// merged repair pass additions.
	BorderTotal    int `json:"borderTotal"`
	StitchedEdges  int `json:"stitchedEdges"`
	BorderBridges  int `json:"borderBridges"`
	BorderAdmitted int `json:"borderAdmitted"`
	RepairedEdges  int `json:"repairedEdges"`
	// EdgeCut is the number of input edges crossing the contiguous-range
	// partition (partition.CutEdges; equal to BorderTotal, typed for the
	// report), and EdgeCutPct the same as a percentage of the input's
	// edges — the border-reconciliation cost a smarter partitioner would
	// shrink.
	EdgeCut    int64   `json:"edgeCut"`
	EdgeCutPct float64 `json:"edgeCutPct"`
	// Chordal is the shard stage's own verification of the merged
	// subgraph (always expected true; a self-check of reconciliation).
	Chordal bool `json:"chordal"`
}

// ExternalSummary reports the out-of-core engine's IO behavior: how the
// input was read, how much of it was resident at peak, and how well the
// double-buffered lane split hid decode time behind kernel time.
type ExternalSummary struct {
	// Mapped reports whether the input file was memory-mapped;
	// BytesMapped is the mapped file size (0 when the buffered fallback
	// reader served the run).
	Mapped      bool  `json:"mapped"`
	BytesMapped int64 `json:"bytesMapped"`
	// BytesRead is the total bytes decoded from the input across shard
	// decodes and the edge-stream reconciliation passes.
	BytesRead int64 `json:"bytesRead"`
	// SpillBytes is the size of the per-shard edge spill file.
	SpillBytes int64 `json:"spillBytes"`
	// PeakResidentBytes bounds the decoded shard CSR bytes held in
	// memory at once, the quantity ResidentShards bounds: the largest
	// summed size of ResidentShards consecutive shards. It comes from
	// the shard sizes alone, so one input and shard count always report
	// the same value.
	PeakResidentBytes int64 `json:"peakResidentBytes"`
	// ResidentShards is the residency bound the run used (after
	// defaulting).
	ResidentShards int `json:"residentShards"`
	// DecodeMillis and KernelMillis are the summed shard decode and
	// kernel wall-clock times; OverlapMillis is how much of the decode
	// time the double buffer hid behind extraction (0 on a single
	// worker, where the lanes serialize).
	DecodeMillis  float64 `json:"decodeMillis"`
	KernelMillis  float64 `json:"kernelMillis"`
	OverlapMillis float64 `json:"overlapMillis"`
}

// DearingSummary reports the dearing engine run.
type DearingSummary struct {
	// Start is the start vertex the incremental extraction grew from.
	Start int `json:"start"`
}

// EliminationSummary reports the elimination engine run.
type EliminationSummary struct {
	// Order is the elimination ordering used (OrderNatural or
	// OrderMinDegree).
	Order string `json:"order"`
}

// StageTiming is the wall-clock duration of one pipeline stage.
type StageTiming struct {
	// Stage is the stage name; Duration its wall-clock time.
	Stage    string
	Duration time.Duration
}

// PipelineResult carries the outputs of every stage that ran.
type PipelineResult struct {
	// Input is the acquired (and possibly relabeled) graph; nil on the
	// out-of-core engine's no-acquire path.
	Input *Graph
	// InputStats are the Table-I statistics of Input, or on the
	// no-acquire path the engine's file-derived EngineResult.InputStats
	// (which this field shadows).
	InputStats Stats
	// EngineResult is the extract stage's outcome: the subgraph, the
	// engine's summary and its worker width. It is the zero value when
	// no extraction stage ran, so Subgraph is nil then.
	EngineResult
	// Verified reports whether the verify stage ran; ChordalOK whether
	// the subgraph passed the chordality check.
	Verified  bool
	ChordalOK bool
	// MaximalityAudited reports whether the bounded maximality audit
	// ran (it is skipped on large inputs); ReAddableEdges is the number
	// of audit violations found (0 means maximal as far as audited).
	MaximalityAudited bool
	ReAddableEdges    int
	// Quality scores the extracted subgraph against the input (edge
	// retention, fill-in under the subgraph's PEO, treewidth and
	// chromatic number); nil when no subgraph was extracted, the
	// subgraph failed verification, or the input exceeded the default
	// quality bounds.
	Quality *Quality
	// Timings records per-stage wall-clock durations in stage order.
	Timings []StageTiming
}

// ReportInput describes the acquired (and possibly relabeled) input
// graph in a RunReport.
type ReportInput struct {
	// Vertices and Edges size the graph.
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// AvgDegree and MaxDegree summarize the degree distribution.
	AvgDegree float64 `json:"avgDegree"`
	MaxDegree int     `json:"maxDegree"`
}

// ReportExtraction summarizes the engine stage in a RunReport.
type ReportExtraction struct {
	// Engine is the engine that ran.
	Engine string `json:"engine"`
	// ChordalEdges is |EC|; EdgesKeptPct its share of the input edges.
	ChordalEdges int64   `json:"chordalEdges"`
	EdgesKeptPct float64 `json:"edgesKeptPct"`
	// Iterations is the extract loop's iteration count (parallel
	// whole-graph engine; sharded runs report per-shard counts in
	// Shard instead). It is a diagnostic, not part of the result: at
	// one worker it is a function of the input, but at two or more the
	// dataflow count depends on thread timing while the edge set does
	// not, and a cached chordald report carries the count of the run
	// that filled the cache.
	Iterations int `json:"iterations,omitempty"`
	// Variant and Schedule are the code path and test ordering actually
	// used by the parallel engine.
	Variant  string `json:"variant,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	// Workers is the worker width the Algorithm 1 kernel ran at
	// (parallel, sharded and external engines).
	Workers int `json:"workers,omitempty"`
	// RepairedEdges and StitchedEdges count post-pass additions.
	RepairedEdges int `json:"repairedEdges,omitempty"`
	StitchedEdges int `json:"stitchedEdges,omitempty"`
	// SerialMillis is the dearing engine's (the serial baseline's)
	// extraction time.
	SerialMillis float64 `json:"serialMillis,omitempty"`
	// Partition and Shard carry the baselines' summaries, when used.
	Partition *PartitionSummary `json:"partition,omitempty"`
	Shard     *ShardSummary     `json:"shard,omitempty"`
	// Dearing and Elimination carry those engines' summaries, when used.
	Dearing     *DearingSummary     `json:"dearing,omitempty"`
	Elimination *EliminationSummary `json:"elimination,omitempty"`
	// External carries the out-of-core engine's IO summary, when used
	// (its reconciliation counters ride Shard, as for the sharded
	// engine).
	External *ExternalSummary `json:"external,omitempty"`
}

// ReportVerify is the verify stage's outcome in a RunReport.
type ReportVerify struct {
	// Chordal reports the chordality check.
	Chordal bool `json:"chordal"`
	// MaximalityAudited reports whether the bounded audit ran;
	// ReAddableEdges counts the violations it found.
	MaximalityAudited bool `json:"maximalityAudited"`
	ReAddableEdges    int  `json:"reAddableEdges"`
}

// ReportTiming is one pipeline stage's wall-clock duration in a
// RunReport.
type ReportTiming struct {
	// Stage is the stage name; Millis its duration.
	Stage  string  `json:"stage"`
	Millis float64 `json:"millis"`
}

// RunReport is the JSON-ready summary of one finished run.
type RunReport struct {
	// Spec is the normalized spec the run executed.
	Spec Spec `json:"spec"`
	// Canonical is the spec's cache identity (Spec.Canonical).
	Canonical string `json:"canonical"`
	// Input describes the acquired input graph.
	Input ReportInput `json:"input"`
	// Extraction summarizes the engine stage; nil for engine "none".
	Extraction *ReportExtraction `json:"extraction,omitempty"`
	// Verify carries the verify outcome; nil when verification was off.
	Verify *ReportVerify `json:"verify,omitempty"`
	// Quality scores the extracted subgraph against the input (edge
	// retention, fill-in under the subgraph's PEO, treewidth and
	// chromatic number); nil when no subgraph was extracted or the
	// metrics were skipped (non-chordal subgraph or oversize input).
	Quality *Quality `json:"quality,omitempty"`
	// Timings holds per-stage wall-clock durations in stage order;
	// TotalMillis is their sum.
	Timings     []ReportTiming `json:"timings"`
	TotalMillis float64        `json:"totalMillis"`
}

// StreamReport is the JSON-ready summary of a closed streaming
// session: the run report of the Close-time run over the accumulated
// input, under the stream-mode spec and its canonical identity, plus
// the online session counters. `chordal -stream -json` emits it, and
// the service returns it from POST /v1/streams/{id}/close.
type StreamReport struct {
	// RunReport is the report of the Close-time run; its Spec and
	// Canonical are the session's stream-mode ones.
	RunReport
	// Stream holds the online session counters at Close.
	Stream StreamStats `json:"stream"`
}

// BatchItemReport is one batch item in a BatchReport.
type BatchItemReport struct {
	// Index is the item's position in the submitted batch.
	Index int `json:"index"`
	// Canonical is the item's spec identity (empty when the spec failed
	// to normalize).
	Canonical string `json:"canonical,omitempty"`
	// DupOf points at the earlier item this one was deduplicated onto;
	// nil for items that executed themselves.
	DupOf *int `json:"dupOf,omitempty"`
	// Error is the item's failure message, when it failed.
	Error string `json:"error,omitempty"`
	// Report is the full run report of an item that executed
	// successfully; nil for failures and deduplicated items (whose
	// outcome lives at DupOf).
	Report *RunReport `json:"report,omitempty"`
}

// BatchReport is the JSON-ready aggregate of a finished Batch:
// per-item reports plus the totals `chordal -batch -json` emits.
type BatchReport struct {
	// Items has one entry per submitted spec, in submission order.
	Items []BatchItemReport `json:"items"`
	// Total, Unique, Deduplicated and Failed count the items: Total =
	// Unique + Deduplicated + items that never ran (invalid specs,
	// output-path collisions, or items canceled before dispatch).
	Total        int `json:"total"`
	Unique       int `json:"unique"`
	Deduplicated int `json:"deduplicated"`
	Failed       int `json:"failed"`
	// VerifyFailed counts items that ran but failed verification (a
	// non-chordal verify outcome or a failed shard self-check); such
	// items carry a report, not an error. A batch passed only when
	// Failed and VerifyFailed are both zero — the CLI's exit code
	// checks exactly that.
	VerifyFailed int `json:"verifyFailed"`
	// WallMillis is the batch's wall-clock time; SumMillis the sum of
	// per-item stage totals. Sum exceeding wall is the overlap the
	// concurrent slots won over running the items back-to-back.
	WallMillis float64 `json:"wallMillis"`
	SumMillis  float64 `json:"sumMillis"`
}

// Report aggregates the batch into its JSON-ready summary.
func (r *BatchResult) Report() BatchReport {
	rep := BatchReport{
		Total:        len(r.Items),
		Unique:       r.Unique,
		Failed:       r.Failed(),
		VerifyFailed: r.VerifyFailed(),
		WallMillis:   durationMillis(r.Wall),
	}
	for i := range r.Items {
		it := &r.Items[i]
		out := BatchItemReport{Index: it.Index, Canonical: it.Canonical}
		if it.DupOf >= 0 {
			dup := it.DupOf
			out.DupOf = &dup
			rep.Deduplicated++
		}
		if it.Err != nil {
			out.Error = it.Err.Error()
		} else if it.DupOf < 0 && it.Result != nil {
			if run, err := Report(it.Spec, it.Result); err == nil {
				out.Report = &run
				rep.SumMillis += run.TotalMillis
			}
		}
		rep.Items = append(rep.Items, out)
	}
	return rep
}

// Report summarizes a finished run of spec s as one JSON-ready object.
func Report(s Spec, res *PipelineResult) (RunReport, error) {
	n, err := s.Normalize()
	if err != nil {
		return RunReport{}, err
	}
	canon, err := n.Canonical()
	if err != nil {
		return RunReport{}, err
	}
	in, er := res.InputStats, &res.EngineResult
	rep := RunReport{
		Spec:      n,
		Canonical: canon,
		Input: ReportInput{
			Vertices:  in.Vertices,
			Edges:     in.Edges,
			AvgDegree: in.AvgDegree,
			MaxDegree: in.MaxDegree,
		},
		Quality: res.Quality,
	}
	// The extraction section is nil when no engine ran (er.Subgraph is
	// nil then).
	if er.Subgraph != nil {
		ex := &ReportExtraction{
			Engine:       n.Engine,
			ChordalEdges: er.Subgraph.NumEdges(),
			SerialMillis: durationMillis(er.SerialDuration),
			Partition:    er.Partition,
			Shard:        er.Shard,
			Dearing:      er.Dearing,
			Elimination:  er.Elimination,
			External:     er.External,
			Workers:      er.Workers,
		}
		if in.Edges > 0 {
			ex.EdgesKeptPct = 100 * float64(ex.ChordalEdges) / float64(in.Edges)
		}
		if r := er.Extraction; r != nil {
			ex.Iterations = len(r.Iterations)
			ex.Variant = variantName(r.Variant)
			ex.Schedule = scheduleName(r.Schedule)
			ex.RepairedEdges = r.RepairedEdges
			ex.StitchedEdges = r.StitchedEdges
		}
		if sh := er.Shard; sh != nil {
			ex.RepairedEdges = sh.RepairedEdges
			ex.StitchedEdges = sh.StitchedEdges
		}
		rep.Extraction = ex
	}
	if res.Verified {
		rep.Verify = &ReportVerify{
			Chordal:           res.ChordalOK,
			MaximalityAudited: res.MaximalityAudited,
			ReAddableEdges:    res.ReAddableEdges,
		}
	}
	for _, st := range res.Timings {
		ms := durationMillis(st.Duration)
		rep.Timings = append(rep.Timings, ReportTiming{st.Stage, ms})
		rep.TotalMillis += ms
	}
	return rep, nil
}
