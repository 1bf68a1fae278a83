package service

import (
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"

	"chordal"
)

func specKey(t *testing.T, req JobRequest) string {
	t.Helper()
	spec, err := newJobSpec(req, false)
	if err != nil {
		t.Fatalf("newJobSpec(%+v): %v", req, err)
	}
	return spec.Key()
}

func TestCanonicalKeySourceSpellings(t *testing.T) {
	base := specKey(t, JobRequest{Source: "rmat-er:12"})
	for _, spelled := range []string{
		"RMAT-ER:12",      // case-insensitive family
		"rmat-er:12:42",   // default seed spelled out
		"rmat-er:12:42:8", // default seed and edge factor spelled out
		" rmat-er:12 ",    // surrounding whitespace
		"\trmat-er:12:42\n",
	} {
		if got := specKey(t, JobRequest{Source: spelled}); got != base {
			t.Errorf("source %q: key %s, want %s (same input as rmat-er:12)", spelled, got, base)
		}
	}
	for _, different := range []string{
		"rmat-er:12:7",    // different seed
		"rmat-er:13",      // different scale
		"rmat-g:12",       // different family
		"rmat-er:12:42:9", // different edge factor
	} {
		if got := specKey(t, JobRequest{Source: different}); got == base {
			t.Errorf("source %q: key collides with rmat-er:12", different)
		}
	}
}

func TestCanonicalKeyOptionSpellings(t *testing.T) {
	// JSON key order and spelled-out defaults must not change identity.
	bodies := []string{
		`{"source":"gnm:1000:5000","options":{}}`,
		`{"source":"gnm:1000:5000"}`,
		`{"source":"gnm:1000:5000:42","options":{"variant":"auto","schedule":"dataflow"}}`,
		`{"options":{"verify":true,"relabel":"none"},"source":"GNM:1000:5000"}`,
		`{"options":{"workers":4},"source":"gnm:1000:5000"}`, // workers excluded from identity
	}
	keys := make([]string, len(bodies))
	for i, body := range bodies {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		keys[i] = specKey(t, req)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Errorf("body %d (%s): key %s, want %s", i, bodies[i], keys[i], keys[0])
		}
	}

	// Options that change the output change the key.
	off := false
	variants := []JobRequest{
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Repair: true}}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Stitch: true}}},
		{Source: "gnm:1000:5000", Options: JobOptions{Relabel: "bfs"}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Schedule: "sync"}}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Variant: "unopt"}}},
		{Source: "gnm:1000:5000", Options: JobOptions{Verify: &off}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: 2}}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: 8}}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: 8, ShardStitchOnly: true}}},
	}
	seen := map[string]int{keys[0]: -1}
	for i, req := range variants {
		k := specKey(t, req)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: key %s", i, prev, k)
		}
		seen[k] = i
	}
}

// TestShardStitchOnlyCanonicalized pins the identity rule: stitch-only
// without sharding is meaningless and must not split the cache key.
func TestShardStitchOnlyCanonicalized(t *testing.T) {
	plain := specKey(t, JobRequest{Source: "gnm:1000:5000"})
	noop := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{ShardStitchOnly: true}}})
	if plain != noop {
		t.Errorf("shardStitchOnly without shards split the key: %s vs %s", plain, noop)
	}
	a := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: 4}}})
	b := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: 4, ShardStitchOnly: true}}})
	if a == b {
		t.Error("shardStitchOnly with shards must change the key")
	}
}

func TestCanonicalKeyRejectsBadSpecs(t *testing.T) {
	for _, req := range []JobRequest{
		{Source: ""},
		{Source: "   "},
		{Source: "rmat-er"},  // missing scale
		{Source: "gnm:1000"}, // missing m
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Variant: "fast"}}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Schedule: "eventually"}}},
		{Source: "gnm:1000:5000", Options: JobOptions{Relabel: "random"}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: -1}}},
		{Source: "gnm:1000:5000", Options: JobOptions{Engine: "warp"}},
		{Source: "gnm:1000:5000", Options: JobOptions{Engine: "serial", EngineConfig: chordal.EngineConfig{Shards: 4}}},
		{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Partitions: 2, Shards: 4}}},
	} {
		if _, err := newJobSpec(req, false); err == nil {
			t.Errorf("newJobSpec(%+v): want error", req)
		}
	}
}

// TestEngineOptionWired pins the engine field of the wire options: a
// named engine lands in the canonical key, the serial alias and implied
// engines (shards / partitions) resolve to the same identity as their
// explicit spelling, and the service itself adds no engine logic
// beyond the decode.
func TestEngineOptionWired(t *testing.T) {
	dearing := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{Engine: "dearing"}})
	if !strings.Contains(dearing, "engine=dearing") {
		t.Errorf("dearing key %q does not carry the engine", dearing)
	}
	if serial := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{Engine: "serial"}}); serial != dearing {
		t.Errorf("serial alias key %q != dearing key %q", serial, dearing)
	}
	implicit := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Shards: 4}}})
	explicit := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{Engine: "sharded", EngineConfig: chordal.EngineConfig{Shards: 4}}})
	if implicit != explicit {
		t.Errorf("implicit sharded key %q != explicit %q", implicit, explicit)
	}
	partImplicit := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{EngineConfig: chordal.EngineConfig{Partitions: 4}}})
	partExplicit := specKey(t, JobRequest{Source: "gnm:1000:5000", Options: JobOptions{Engine: "partitioned", EngineConfig: chordal.EngineConfig{Partitions: 4}}})
	if partImplicit != partExplicit {
		t.Errorf("implicit partitioned key %q != explicit %q", partImplicit, partExplicit)
	}
}

// TestUploadSourcesRejectedInJSON pins that an upload identity cannot
// be submitted as a plain JSON source: the request carries no graph
// bytes, so the job could only fail — and, via single-flight, drag a
// genuine concurrent upload of the same graph down with it.
func TestUploadSourcesRejectedInJSON(t *testing.T) {
	src := chordal.UploadSource("edges", sha256.Sum256([]byte("0 1\n")))
	for _, allowPaths := range []bool{false, true} {
		if _, err := newJobSpec(JobRequest{Source: src}, allowPaths); err == nil {
			t.Errorf("upload identity accepted as JSON source (allowPaths=%t)", allowPaths)
		}
	}
}

func TestPathSourcesGated(t *testing.T) {
	req := JobRequest{Source: "/etc/hosts"}
	if _, err := newJobSpec(req, false); err == nil {
		t.Error("path source accepted with paths disabled")
	}
	spec, err := newJobSpec(req, true)
	if err != nil {
		t.Fatalf("path source rejected with paths allowed: %v", err)
	}
	if spec.cacheable() {
		t.Errorf("path spec %+v must be non-cacheable", spec)
	}
}

func TestUploadSourceContentAddressed(t *testing.T) {
	a := chordal.UploadSource("edges", sha256.Sum256([]byte("0 1\n1 2\n")))
	b := chordal.UploadSource("edges", sha256.Sum256([]byte("0 1\n1 2\n")))
	c := chordal.UploadSource("edges", sha256.Sum256([]byte("0 1\n1 3\n")))
	if a != b {
		t.Errorf("identical content hashed differently: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("distinct content collided: %s", a)
	}
	// The same bytes decode differently under a different parser, so
	// the format is part of the identity.
	if d := chordal.UploadSource("mtx", sha256.Sum256([]byte("0 1\n1 2\n"))); d == a {
		t.Errorf("same bytes under different formats collided: %s", d)
	}
}

// TestJobCost pins the scheduler cost of each source kind: one unit
// plus one per 64Ki of the source's edge bound, or of its vertex count
// where the spec bounds no edges, capped at 1024.
func TestJobCost(t *testing.T) {
	path, err := newJobSpec(JobRequest{Source: "/data/g.bin"}, true)
	if err != nil {
		t.Fatal(err)
	}
	upload, err := finishJobSpec(chordal.Spec{Source: chordal.UploadSource("edges", sha256.Sum256([]byte("0 1\n")))})
	if err != nil {
		t.Fatal(err)
	}
	if c := path.cost(); c != 1 {
		t.Errorf("file path: cost %d, want 1", c)
	}
	if c := upload.cost(); c != 1 {
		t.Errorf("upload: cost %d, want 1", c)
	}
	for source, want := range map[string]int64{
		"rmat-g:14":        3,
		"rmat-er:30:1:100": 1024,
		// edgefactor·2^scale past 2^63 saturates instead of wrapping.
		"rmat-er:30:1:100000000000": 1024,
		"gnm:150000:900000:1":       14,
		"ws:100000:8:0.1:1":         13,
		"geo:200000:0.004:3":        4,
		"ktree:800:24:1":            1,
		"gse5140-crt:1":             1,
	} {
		spec, err := newJobSpec(JobRequest{Source: source}, false)
		if err != nil {
			t.Fatal(err)
		}
		if c := spec.cost(); c != want {
			t.Errorf("%s: cost %d, want %d", source, c, want)
		}
	}
}
