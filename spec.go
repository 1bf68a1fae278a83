package chordal

import (
	"context"
	"fmt"
	"strings"
	"time"

	"chordal/internal/analysis"
	"chordal/internal/graph"
	"chordal/internal/quality"
	"chordal/internal/verify"
)

// This file defines the declarative Spec — the single description of
// an end-to-end run shared by the library, the CLI tools, and the HTTP
// service — and the Runner that executes it. A Spec is versioned and
// JSON-round-trippable; Canonical() is its one normalized encoding,
// which the service uses verbatim as its cache and dedup key. Engine
// selection is explicit: conflicting parameters (say, shards on the
// dearing engine) are validation errors, never silent precedence.

// SpecVersion is the current Spec schema version. Normalize fills it
// into a zero V and rejects any other value, so persisted specs from a
// future incompatible schema fail loudly instead of being misread.
const SpecVersion = 1

// EngineConfig parameterizes an extraction Engine. Its JSON fields
// flatten into the Spec object. The zero value selects the defaults
// (auto variant, dataflow schedule, machine-width workers).
type EngineConfig struct {
	// Variant is the kernel code path: auto|opt|unopt (default auto).
	Variant string `json:"variant,omitempty"`
	// Schedule is the subset-test ordering: dataflow|async|sync
	// (default dataflow).
	Schedule string `json:"schedule,omitempty"`
	// Workers bounds the engine's parallelism; <= 0 means machine
	// width. Excluded from Canonical: the dataflow schedule's edge set
	// is worker-count independent, and for the async schedule any run's
	// output is an equally valid representative, so a repeat of the
	// same spec at a different parallelism still shares one identity.
	Workers int `json:"workers,omitempty"`
	// Repair enables the maximality repair post-pass (DESIGN.md §5).
	Repair bool `json:"repair,omitempty"`
	// Stitch enables the component stitch post-pass.
	Stitch bool `json:"stitch,omitempty"`
	// Partitions is the part count of the partitioned engine; setting
	// it with any other engine is a validation error.
	Partitions int `json:"partitions,omitempty"`
	// Shards is the shard count of the sharded engine; setting it with
	// any other engine is a validation error.
	Shards int `json:"shards,omitempty"`
	// ShardStitchOnly restricts the sharded (and external) engine's
	// border reconciliation to the spanning stitch (bridges only).
	// Normalize clears it on every other engine so it cannot split
	// identities.
	ShardStitchOnly bool `json:"shardStitchOnly,omitempty"`
	// ResidentShards bounds how many decoded shards the external engine
	// holds in memory at once (the one being extracted plus prefetch);
	// <= 0 defaults to 2, the minimum that overlaps IO with extraction.
	// Excluded from Canonical: a pure residency/speed knob, it never
	// changes the edge set.
	ResidentShards int `json:"residentShards,omitempty"`
	// MaxDeferred bounds a streaming session's deferred queue; when the
	// bound is reached, newly rejected edges are dropped with an
	// "overflow" defer event instead of queued for repair. 0 means
	// unbounded. Dropped edges leave the session's accumulated input, so
	// the bound is part of a stream spec's canonical identity; setting
	// it outside stream mode is a validation error.
	MaxDeferred int `json:"maxDeferred,omitempty"`
	// Start is the dearing engine's selection-start vertex (the serial
	// growth seeds there; different starts grow different — equally
	// maximal — subgraphs). Setting it non-zero with any other engine
	// is a validation error. It changes the edge set, so it is part of
	// the canonical identity of dearing specs.
	Start int `json:"start,omitempty"`
	// Order is the elimination engine's ordering: natural|mindeg
	// (default mindeg, the fill-reducing heuristic). Setting it with
	// any other engine is a validation error. It changes the edge set,
	// so it is part of the canonical identity of elimination specs.
	Order string `json:"order,omitempty"`

	// Observer receives the run's event stream. Runtime-only: excluded
	// from JSON and from Canonical.
	Observer Observer `json:"-"`
}

// coreOptions resolves the declarative fields onto the kernel options.
func (c EngineConfig) coreOptions() (Options, error) {
	variant, err := ParseVariant(c.Variant)
	if err != nil {
		return Options{}, err
	}
	schedule, err := ParseSchedule(c.Schedule)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Variant:          variant,
		Schedule:         schedule,
		Workers:          c.Workers,
		RepairMaximality: c.Repair,
		StitchComponents: c.Stitch,
	}, nil
}

// Spec is the versioned, declarative description of one end-to-end run:
// acquire (Source) → relabel → extract (Engine + EngineConfig) →
// verify → write (Output). It is JSON-round-trippable, and Canonical
// returns its single normalized encoding — the identity the service
// keys every cache on. Execute a Spec with Run/RunContext, or with a
// Runner to inject a pre-acquired input graph or an Observer.
type Spec struct {
	// V is the schema version; 0 normalizes to SpecVersion, any other
	// mismatch is a validation error.
	V int `json:"v"`
	// Source is the input file path, generator spec (see SourceSpecs),
	// or upload identity. May be empty only when a Runner injects the
	// input graph directly.
	Source string `json:"source,omitempty"`
	// Relabel renumbers vertices before extraction: none|bfs|degree
	// (default none).
	Relabel string `json:"relabel,omitempty"`
	// Mode selects batch execution (the default; Run) or a streaming
	// session (OpenStream): batch|stream. Batch normalizes to the empty
	// string, so every pre-existing spec — and its canonical key — is
	// unchanged. Stream sessions run the parallel engine, take their
	// input as edge deltas (Source must be empty), and are
	// incompatible with Relabel and Output (both need the whole graph up
	// front; the session's Close delivers the result instead).
	Mode string `json:"mode,omitempty"`
	// Engine names the registered extraction engine (see EngineNames),
	// or "none" to skip extraction. Empty selects parallel — unless
	// exactly one of Partitions/Shards is set, which implies the
	// partitioned/sharded engine. "serial" is an alias of dearing.
	Engine string `json:"engine,omitempty"`
	// EngineConfig parameterizes the engine; its fields flatten into
	// the spec's JSON object.
	EngineConfig
	// Verify checks the extracted subgraph for chordality and, on small
	// inputs, audits maximality.
	Verify bool `json:"verify,omitempty"`
	// Output writes the final graph (the subgraph when an extraction
	// engine ran, otherwise the input) to this path. Excluded from
	// Canonical: it changes where the result lands, not what it is.
	Output string `json:"output,omitempty"`
}

// Normalize resolves the spec to its canonical form: version filled,
// source canonicalized (family lowercased, defaults filled), enum
// names lowercased and defaulted, the engine made explicit (the alias
// "serial" rewritten to "dearing"), and engine-irrelevant toggles
// cleared. It validates as it goes — unknown engines or enum names,
// version mismatches, and conflicting engine selections (partitions or
// shards against a non-matching engine) are errors, never silent
// precedence.
func (s Spec) Normalize() (Spec, error) {
	n := s
	switch n.V {
	case 0:
		n.V = SpecVersion
	case SpecVersion:
	default:
		return n, fmt.Errorf("chordal: spec version %d unsupported (this release speaks v%d)", n.V, SpecVersion)
	}

	if src := strings.TrimSpace(n.Source); src == "" {
		n.Source = ""
	} else {
		parsed, err := ParseSource(src)
		if err != nil {
			return n, err
		}
		n.Source = parsed.Canonical()
	}

	relabel, err := ParseRelabel(n.Relabel)
	if err != nil {
		return n, err
	}
	n.Relabel = relabel.String()
	variant, err := ParseVariant(n.Variant)
	if err != nil {
		return n, err
	}
	n.Variant = variantName(variant)
	schedule, err := ParseSchedule(n.Schedule)
	if err != nil {
		return n, err
	}
	n.Schedule = scheduleName(schedule)
	if n.Workers < 0 {
		n.Workers = 0
	}
	if n.Partitions < 0 {
		return n, fmt.Errorf("chordal: spec: partitions %d must be >= 0", n.Partitions)
	}
	if n.Shards < 0 {
		return n, fmt.Errorf("chordal: spec: shards %d must be >= 0", n.Shards)
	}

	n.Engine = strings.ToLower(strings.TrimSpace(n.Engine))
	if n.Engine == "serial" {
		// The paper's serial baseline is the dearing engine (from start
		// vertex 0 by default). Specs and jobs persisted under the old
		// name still run, and share dearing's canonical key.
		n.Engine = EngineDearing
	}
	if n.Engine == "" {
		switch {
		case n.Partitions > 0 && n.Shards > 0:
			return n, fmt.Errorf("chordal: spec: partitions=%d and shards=%d conflict; they select different engines", n.Partitions, n.Shards)
		case n.Partitions > 0:
			n.Engine = EnginePartitioned
		case n.Shards > 0:
			n.Engine = EngineSharded
		default:
			n.Engine = EngineParallel
		}
	}
	if n.Engine != EngineNone {
		if _, ok := LookupEngine(n.Engine); !ok {
			return n, fmt.Errorf("chordal: spec: unknown engine %q (registered: %s)", n.Engine, strings.Join(EngineNames(), "|"))
		}
	}
	if n.Partitions > 0 && n.Engine != EnginePartitioned {
		return n, fmt.Errorf("chordal: spec: partitions=%d conflicts with engine %q", n.Partitions, n.Engine)
	}
	if n.Shards > 0 && n.Engine != EngineSharded && n.Engine != EngineExternal {
		return n, fmt.Errorf("chordal: spec: shards=%d conflicts with engine %q", n.Shards, n.Engine)
	}
	if n.Engine == EnginePartitioned && n.Partitions == 0 {
		return n, fmt.Errorf("chordal: spec: the partitioned engine needs partitions >= 1")
	}
	if (n.Engine == EngineSharded || n.Engine == EngineExternal) && n.Shards == 0 {
		return n, fmt.Errorf("chordal: spec: the %s engine needs shards >= 1", n.Engine)
	}
	if n.Engine != EngineSharded && n.Engine != EngineExternal {
		// Meaningless off the shard-based engines; clear it so a stray
		// toggle cannot split cache identities.
		n.ShardStitchOnly = false
	}
	if n.ResidentShards < 0 {
		n.ResidentShards = 0
	}
	if n.Engine == EngineExternal && n.Relabel != RelabelNone.String() {
		// Relabeling needs the whole graph in memory, which is exactly
		// what the out-of-core engine exists to avoid.
		return n, fmt.Errorf("chordal: spec: relabel=%s requires an in-memory graph; the external engine cannot apply it", n.Relabel)
	}
	if n.MaxDeferred < 0 {
		return n, fmt.Errorf("chordal: spec: maxDeferred %d must be >= 0", n.MaxDeferred)
	}
	// Start and Order change the extracted edge set, so — unlike the
	// stitch toggle above — a stray value is a conflict error, never
	// silently dropped.
	if n.Start < 0 {
		return n, fmt.Errorf("chordal: spec: start %d must be >= 0", n.Start)
	}
	if n.Start != 0 && n.Engine != EngineDearing {
		return n, fmt.Errorf("chordal: spec: start=%d requires the dearing engine (engine %q selected)", n.Start, n.Engine)
	}
	n.Order = strings.ToLower(strings.TrimSpace(n.Order))
	if n.Engine == EngineElimination {
		switch n.Order {
		case "":
			n.Order = OrderMinDegree
		case OrderNatural, OrderMinDegree:
		default:
			return n, fmt.Errorf("chordal: spec: unknown order %q (want %s|%s)", n.Order, OrderNatural, OrderMinDegree)
		}
	} else if n.Order != "" {
		return n, fmt.Errorf("chordal: spec: order=%q requires the elimination engine (engine %q selected)", n.Order, n.Engine)
	}
	if n.Verify && n.Engine == EngineNone {
		return n, fmt.Errorf("chordal: spec: verify requires an extraction engine")
	}
	n.Mode = strings.ToLower(strings.TrimSpace(n.Mode))
	switch n.Mode {
	case "", ModeBatch:
		// Batch is the zero value: normalizing it away keeps every
		// pre-existing spec's JSON form and canonical key byte-identical.
		n.Mode = ""
	case ModeStream:
		if n.Engine != EngineParallel {
			return n, fmt.Errorf("chordal: spec: stream sessions run the %s engine (engine %q selected)", EngineParallel, n.Engine)
		}
		if n.Source != "" {
			return n, fmt.Errorf("chordal: spec: stream mode takes edge deltas through the session, not a source (%q)", n.Source)
		}
		if n.Relabel != RelabelNone.String() {
			return n, fmt.Errorf("chordal: spec: relabel=%s requires the whole graph up front; stream mode cannot apply it", n.Relabel)
		}
		if n.Output != "" {
			return n, fmt.Errorf("chordal: spec: stream mode delivers results through the session's Close, not output=%q", n.Output)
		}
	default:
		return n, fmt.Errorf("chordal: spec: unknown mode %q (want %s|%s)", n.Mode, ModeBatch, ModeStream)
	}
	if n.MaxDeferred > 0 && n.Mode != ModeStream {
		return n, fmt.Errorf("chordal: spec: maxDeferred=%d bounds a streaming session's deferred queue and requires mode=stream", n.MaxDeferred)
	}
	return n, nil
}

// Validate reports whether the spec is well-formed, without returning
// the normalized form.
func (s Spec) Validate() error {
	_, err := s.Normalize()
	return err
}

// Canonical returns the spec's single normalized encoding — a stable,
// human-readable k=v line over every identity-bearing field in fixed
// order. Equal canonical strings mean "same input, same extraction,
// same result", so the string is used verbatim as the cache and dedup
// key across the library, CLI, and service (it replaced the service's
// private option hash). Workers and Output are deliberately excluded:
// neither changes the extracted subgraph.
// The encoding is pinned by golden tests; changing it invalidates
// every persisted cache key.
func (s Spec) Canonical() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("v%d engine=%s relabel=%s variant=%s schedule=%s repair=%t stitch=%t partitions=%d shards=%d stitchonly=%t verify=%t",
		n.V, n.Engine, n.Relabel, n.Variant, n.Schedule, n.Repair, n.Stitch,
		n.Partitions, n.Shards, n.ShardStitchOnly, n.Verify)
	// The mode token appears only for stream specs — a scoped token, like
	// the engine-specific fields below, so every pre-existing batch key
	// stays byte-identical.
	if n.Mode == ModeStream {
		key += " mode=" + ModeStream
		// A bounded deferred queue drops edges from the session's
		// accumulated input, so it is identity-bearing — but only in
		// stream mode, so the token is scoped under it.
		if n.MaxDeferred > 0 {
			key += fmt.Sprintf(" maxdeferred=%d", n.MaxDeferred)
		}
	}
	// Engine-specific identity fields appear only for the engine they
	// parameterize, so keys of every pre-existing engine — and every
	// persisted cache entry — are byte-identical to earlier releases.
	// src stays last: file-path sources may contain spaces.
	switch n.Engine {
	case EngineDearing:
		key += fmt.Sprintf(" start=%d", n.Start)
	case EngineElimination:
		key += " order=" + n.Order
	}
	return key + " src=" + n.Source, nil
}

// Deterministic reports whether two runs of this spec are guaranteed
// the same input graph — true for generator sources (deterministic in
// their canonical spec) and content-addressed uploads, false for file
// paths, whose contents may change between loads. Results of
// deterministic specs are safe to cache by Canonical.
func (s Spec) Deterministic() bool {
	src, err := ParseSource(s.Source)
	if err != nil {
		return false
	}
	return src.Generated() || src.ContentAddressed()
}

// Run executes the spec with a background context.
func (s Spec) Run() (*PipelineResult, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the spec under ctx; see Runner.Run for the
// execution contract.
func (s Spec) RunContext(ctx context.Context) (*PipelineResult, error) {
	return Runner{}.Run(ctx, s)
}

// Runner executes Specs with execution-time inputs that are not part
// of the spec's identity: a pre-acquired input graph, a cache of
// generated inputs and an event Observer. The zero value is ready to
// use.
type Runner struct {
	// Input, when non-nil, is used directly as the acquired graph and
	// the spec's Source is not loaded. Graphs are immutable, so a
	// cached or shared instance can be injected safely; this is how the
	// service runs parsed uploads.
	Input *Graph
	// Inputs, when non-nil and Input is nil, serves and keeps the
	// graphs of generated sources, keyed by Source.Canonical. A hit
	// reports its acquire stage marked Cached and records no acquire
	// timing; a miss loads the graph and adds it. File paths never
	// touch it: their contents may change between loads.
	Inputs InputCache
	// Observer, when non-nil, receives the run's unified event stream:
	// stage begin/end with timing, extraction iterations (tagged with
	// the shard during sharded extraction, possibly concurrently), and
	// the verify outcome.
	Observer Observer
}

// InputCache holds acquired input graphs by Source.Canonical, for a
// Runner's Inputs. A generated source's graph is the same at any
// worker count, so one entry serves runs of every width. Runners that
// share a cache call it concurrently.
type InputCache interface {
	Get(canonical string) (*Graph, bool)
	Add(canonical string, g *Graph)
}

// maxAuditEdges bounds the input size for the maximality audit, whose
// cost grows with the number of absent edges.
const maxAuditEdges = 200000

// Run executes the spec under ctx. The spec is normalized first, so
// validation errors surface before any work. Cancellation is observed
// between stages and, inside the parallel and sharded engines, between
// iterations of the extract loop; the first error returned after
// cancellation is ctx.Err(). A canceled run leaves no goroutines
// behind.
func (r Runner) Run(ctx context.Context, s Spec) (*PipelineResult, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	if s.Mode == ModeStream {
		return nil, fmt.Errorf("chordal: stream-mode specs open sessions through OpenStream, not Run")
	}
	res := &PipelineResult{}
	emit := func(ev Event) {
		if r.Observer != nil {
			r.Observer(ev)
		}
	}
	enter := func(stage string) time.Time {
		emit(newStageEvent(stage))
		return time.Now()
	}
	mark := func(stage string, start time.Time) {
		d := time.Since(start)
		res.Timings = append(res.Timings, StageTiming{stage, d})
		emit(newStageEndEvent(stage, d))
	}

	// Check before acquire: a run canceled while queued must not pay
	// for the most expensive stage (loading or generating the input).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := r.Input
	var srcPath string
	if g == nil {
		if s.Source == "" {
			return nil, fmt.Errorf("chordal: spec needs a source (or a Runner-injected input graph)")
		}
		src, err := ParseSource(s.Source)
		if err != nil {
			return nil, err
		}
		cache := r.Inputs
		if !src.Generated() {
			cache = nil
		}
		t0 := time.Now()
		if cache != nil {
			g, _ = cache.Get(src.Canonical())
		}
		switch {
		case g != nil:
			emit(Event{Type: EventStageBegin, Stage: "acquire", Cached: true})
			emit(Event{Type: EventStageEnd, Stage: "acquire", Cached: true, Millis: durationMillis(time.Since(t0))})
		case s.Engine == EngineExternal && !src.Generated() && !src.ContentAddressed() && graph.Format(src.Canonical()) == "bin":
			// Out-of-core fast path: the external engine extracts straight
			// from a binary-CSR file, so the acquire stage is skipped and
			// the input is never materialized in memory.
			srcPath = src.Canonical()
		default:
			start := enter("acquire")
			if g, err = src.LoadWorkers(s.Workers); err != nil {
				return nil, err
			}
			mark("acquire", start)
			if cache != nil {
				cache.Add(src.Canonical(), g)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if g != nil && s.Relabel != RelabelNone.String() {
		start := enter("relabel")
		mode, err := ParseRelabel(s.Relabel)
		if err != nil {
			return nil, err
		}
		switch mode {
		case RelabelBFS:
			g = g.Relabel(analysis.BFSOrder(g, 0))
		case RelabelDegree:
			g = g.Relabel(analysis.DegreeOrder(g))
		}
		mark("relabel", start)
	}
	if g != nil {
		res.Input = g
		res.InputStats = ComputeStats(g)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if s.Engine != EngineNone {
		eng, ok := LookupEngine(s.Engine)
		if !ok {
			return nil, fmt.Errorf("chordal: spec: unknown engine %q", s.Engine)
		}
		cfg := s.EngineConfig
		cfg.Observer = r.Observer
		start := enter("extract")
		var er *EngineResult
		if srcPath != "" {
			er, err = externalEngine{}.ExtractSource(ctx, srcPath, cfg)
		} else {
			er, err = eng.Extract(ctx, g, cfg)
		}
		if err != nil {
			return nil, err
		}
		if er.InputStats != nil {
			// The out-of-core path computed the Table-I stats from the
			// file header and offsets instead of a resident graph.
			res.InputStats = *er.InputStats
		}
		res.EngineResult = *er
		mark("extract", start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// peo is the subgraph's validated MCS order, the run's one
	// certificate of chordality (EngineResult.certificate), and width
	// its largest MCS label: the verify stage takes them and hands peo
	// to the maximality audit, and the quality metrics reuse both.
	var peo []int32
	var width int
	if s.Verify {
		if res.Subgraph == nil {
			return nil, fmt.Errorf("chordal: spec: verify requires an extraction engine")
		}
		start := enter("verify")
		// With a chordal subgraph and a resident input of at most
		// maxAuditEdges edges, the maximality audit runs from the
		// certificate's order, counting at most 10 re-addable edges.
		peo, width, res.ChordalOK = res.certificate()
		res.Verified = true
		if res.ChordalOK && g != nil && g.NumEdges() <= maxAuditEdges {
			viol, err := verify.AuditMaximalityFromPEO(ctx, g, res.Subgraph, peo, 10)
			if err != nil {
				return nil, err
			}
			res.MaximalityAudited, res.ReAddableEdges = true, len(viol)
		}
		emit(newVerifyEvent(res.ChordalOK, res.MaximalityAudited, res.ReAddableEdges))
		mark("verify", start)
	}

	// Quality metrics are reporting, not identity: they never change
	// the subgraph, so they ride outside the spec (and its canonical
	// key) and are skipped silently when the subgraph is not chordal
	// (the verify stage is the loud path for that) or the input exceeds
	// the default bounds. Without a verify stage they take the
	// certificate themselves.
	if g != nil && res.Subgraph != nil {
		ok := res.ChordalOK
		if !res.Verified {
			peo, width, ok = res.certificate()
		}
		if ok {
			if q, err := quality.ComputeFromPEO(g, res.Subgraph, peo, width, quality.DefaultLimits()); err == nil {
				res.Quality = q
			}
		}
	}

	if s.Output != "" {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := enter("write")
		out := res.Subgraph
		if out == nil {
			out = res.Input
		}
		if err := graph.SaveFile(s.Output, out); err != nil {
			return nil, err
		}
		mark("write", start)
	}
	return res, nil
}

// ParseVariant parses the CLI names of the extraction variants:
// auto|opt|unopt.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return VariantAuto, nil
	case "opt":
		return VariantOptimized, nil
	case "unopt":
		return VariantUnoptimized, nil
	}
	return VariantAuto, fmt.Errorf("chordal: unknown variant %q (want auto|opt|unopt)", s)
}

// variantName returns the canonical CLI/wire name of a Variant.
func variantName(v Variant) string {
	switch v {
	case VariantOptimized:
		return "opt"
	case VariantUnoptimized:
		return "unopt"
	default:
		return "auto"
	}
}

// ParseSchedule parses the CLI names of the test schedules:
// dataflow|async|sync.
func ParseSchedule(s string) (Schedule, error) {
	switch strings.ToLower(s) {
	case "dataflow", "":
		return ScheduleDataflow, nil
	case "async":
		return ScheduleAsync, nil
	case "sync":
		return ScheduleSynchronous, nil
	}
	return ScheduleDataflow, fmt.Errorf("chordal: unknown schedule %q (want dataflow|async|sync)", s)
}

// scheduleName returns the canonical CLI/wire name of a Schedule.
func scheduleName(s Schedule) string {
	switch s {
	case ScheduleAsync:
		return "async"
	case ScheduleSynchronous:
		return "sync"
	default:
		return "dataflow"
	}
}

// ParseRelabel parses the CLI names of the relabel modes:
// none|bfs|degree.
func ParseRelabel(s string) (RelabelMode, error) {
	switch strings.ToLower(s) {
	case "none", "":
		return RelabelNone, nil
	case "bfs":
		return RelabelBFS, nil
	case "degree":
		return RelabelDegree, nil
	}
	return RelabelNone, fmt.Errorf("chordal: unknown relabel mode %q (want none|bfs|degree)", s)
}

// RelabelMode selects the optional vertex renumbering stage.
type RelabelMode int

const (
	// RelabelNone keeps the input numbering.
	RelabelNone RelabelMode = iota
	// RelabelBFS renumbers in breadth-first order from vertex 0 (the
	// paper's connectivity remark below Theorem 2).
	RelabelBFS
	// RelabelDegree gives the highest-degree vertices the smallest ids
	// (the DESIGN.md §5 maximality heuristic).
	RelabelDegree
)

// String returns the canonical CLI/wire name of the mode.
func (m RelabelMode) String() string {
	switch m {
	case RelabelBFS:
		return "bfs"
	case RelabelDegree:
		return "degree"
	default:
		return "none"
	}
}
