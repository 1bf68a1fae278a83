package service

import (
	"fmt"
	"strings"

	"chordal"
)

// JobRequest is the JSON body of POST /v1/jobs: where the input graph
// comes from and how to extract. Multipart submissions carry the graph
// bytes instead of Source and may attach the same Options object as a
// JSON-encoded "options" form field. The request is a thin wire shim:
// it decodes into a chordal.Spec, and every normalization, validation
// and identity rule lives in the chordal package.
type JobRequest struct {
	// Source is a file path or generator spec, as understood by
	// chordal.ParseSource (see chordal.SourceSpecs for the grammar).
	Source string `json:"source"`
	// Options selects the extraction configuration; the zero value uses
	// the defaults (parallel engine, auto variant, dataflow schedule,
	// verify on).
	Options JobOptions `json:"options"`
}

// JobOptions is the wire form of the extraction configuration: the
// library's chordal.EngineConfig, whose JSON fields flatten into the
// options object, plus the spec fields a job may set. String enums use
// the CLI names so the HTTP API and the chordal command read
// identically. JSON key order and omitted-versus-defaulted fields do
// not affect job identity: the decoded chordal.Spec is normalized and
// its Canonical() string is the job key. A spec's Output path cannot be
// set from the wire; results are downloaded, never written by the
// server.
//
// Workers can narrow a job below its slot's width but not widen it:
// the server splits its worker total over MaxConcurrent fixed-width
// slots (parallel.SlotWidths), and a job runs at its slot's width, or
// at the requested count when that is smaller. <= 0 runs at the slot's
// width. The report's spec carries the width the job ran at.
type JobOptions struct {
	// Engine names the extraction engine (chordal.EngineNames; default
	// parallel). Omitted, it is implied by Partitions/Shards when
	// exactly one of them is set; conflicting selections are rejected.
	Engine string `json:"engine,omitempty"`
	// Relabel is none|bfs|degree (default none).
	Relabel string `json:"relabel,omitempty"`
	// EngineConfig holds the engine parameters (variant, schedule,
	// workers, repair, stitch, partitions, shards, shardStitchOnly,
	// residentShards, maxDeferred, start, order); its fields document
	// their meaning and which of them enter the canonical key.
	chordal.EngineConfig
	// Verify runs the chordality check (and maximality audit on small
	// inputs) on the result; omitted means true.
	Verify *bool `json:"verify,omitempty"`
	// Mode is batch|stream (default batch). Stream-mode specs are not
	// jobs: POST /v1/jobs rejects them and points at POST /v1/streams,
	// which takes the same options object.
	Mode string `json:"mode,omitempty"`
}

// Spec decodes the wire options into a normalized chordal.Spec for the
// given source — the thin mapping layer between the HTTP API and the
// library's one spec representation.
func (o JobOptions) Spec(source string) (chordal.Spec, error) {
	return o.rawSpec(source).Normalize()
}

// rawSpec builds the un-normalized chordal.Spec the wire options
// describe; Spec and the stream-open handler normalize it themselves.
func (o JobOptions) rawSpec(source string) chordal.Spec {
	return chordal.Spec{
		V:            chordal.SpecVersion,
		Source:       source,
		Relabel:      o.Relabel,
		Mode:         o.Mode,
		Engine:       o.Engine,
		EngineConfig: o.EngineConfig,
		Verify:       o.Verify == nil || *o.Verify,
	}
}

// jobSpec pairs a normalized chordal.Spec with its canonical identity —
// the service holds no option-normalization or hashing logic of its
// own; the key is chordal.Spec.Canonical() verbatim.
type jobSpec struct {
	// spec is the normalized run description (canonical source,
	// explicit engine, defaulted enums).
	spec chordal.Spec
	// key is spec.Canonical(), the cache/dedup identity shared with the
	// CLI and library.
	key string
}

// newJobSpec decodes and normalizes a Source-based request. Unless
// allowPaths is set, sources that are neither generator specs nor
// uploads are rejected — a network-facing server must not let clients
// name arbitrary server files (error messages and results would
// disclose their contents); uploads are the supported way to submit
// graph data.
func newJobSpec(req JobRequest, allowPaths bool) (jobSpec, error) {
	if strings.EqualFold(strings.TrimSpace(req.Options.Mode), chordal.ModeStream) {
		return jobSpec{}, fmt.Errorf("service: stream-mode specs are sessions, not jobs; open one at POST /v1/streams")
	}
	if strings.TrimSpace(req.Source) == "" {
		return jobSpec{}, fmt.Errorf("service: job needs a source (or a multipart graph upload)")
	}
	spec, err := req.Options.Spec(req.Source)
	if err != nil {
		return jobSpec{}, err
	}
	src, err := chordal.ParseSource(spec.Source)
	if err != nil {
		return jobSpec{}, err
	}
	if src.ContentAddressed() {
		// An upload identity names bytes this request did not carry; a
		// job built from it could only fail at load time — and, being
		// cacheable, could absorb a genuine concurrent upload of the
		// same graph via single-flight and fail that too.
		return jobSpec{}, fmt.Errorf("service: source %q is an upload identity; submit the graph bytes as a multipart upload instead", spec.Source)
	}
	if !src.Generated() && !allowPaths {
		return jobSpec{}, fmt.Errorf("service: file-path sources are disabled (upload the graph, or start the server with path sources allowed)")
	}
	return finishJobSpec(spec)
}

// finishJobSpec derives the canonical key of a normalized spec.
func finishJobSpec(spec chordal.Spec) (jobSpec, error) {
	key, err := spec.Canonical()
	return jobSpec{spec: spec, key: key}, err
}

// cacheable reports whether completed extractions for this spec may be
// served from the result cache (chordal.Spec.Deterministic): generator
// specs are deterministic in their canonical form and uploads are
// content-addressed, but a file path's contents can change between
// loads, so path-sourced jobs are always re-run.
func (s jobSpec) cacheable() bool { return s.spec.Deterministic() }

// Key returns the job's cache/dedup identity: the spec's canonical
// encoding, shared verbatim with chordal.Spec.Canonical callers.
func (s jobSpec) Key() string { return s.key }

// Scheduler cost units: one unit per costUnitEdges input edges (so a
// default job is cost 1 and a scale-20 R-MAT weighs in around 128),
// capped so a single pathological size cannot dwarf a tenant's entire
// fair share.
const (
	costUnitEdges = 64 << 10
	maxJobCost    = 1 << 10
)

// cost is the job's scheduler cost: one unit plus one per costUnitEdges
// of its source's edge bound (chordal.Source.Size), or of its vertex
// count where the spec bounds no edges. Uploads and file paths have no
// size in their identity and charge the single-unit default — the cost
// steers weighted-fair interleaving, it is not an admission bound, so
// erring small only softens (never breaks) fairness.
func (s jobSpec) cost() int64 {
	src, err := chordal.ParseSource(s.spec.Source)
	if err != nil {
		return 1
	}
	vertices, edges := src.Size()
	if edges == 0 {
		edges = vertices
	}
	return min(1+edges/costUnitEdges, maxJobCost)
}
