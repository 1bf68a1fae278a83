package chordal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"chordal/internal/biogen"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/synth"
)

// # Source spec grammar
//
// A Source is either a path to a graph file (.bin binary CSR, .mtx
// Matrix Market, anything else a text edge list), a generator spec
// "family:arg:arg..." with colon-separated arguments (trailing
// arguments with defaults may be omitted), or a content-addressed
// upload identity "upload:format:sha256hex" naming graph bytes the
// caller supplies out of band. The SourceSpecs constant is the
// authoritative one-line-per-family grammar (the CLIs print it in
// their usage text). Family names are case-insensitive; seed defaults
// to 42, edgefactor to 8, downscale to 8. Source.Canonical returns
// the lowercased, default-filled form that cache keys are built from.

// Source describes where a pipeline input graph comes from: a file
// path, a generator spec of the form "family:arg:arg...", or a
// content-addressed upload identity. Use ParseSource to build one from
// a string.
type Source struct {
	spec      string
	canon     string
	generated bool
	content   bool
	load      func(workers int) (*Graph, error)
}

// String returns the spec the source was parsed from.
func (s Source) String() string { return s.spec }

// Canonical returns the normalized form of the spec: the generator
// family lowercased and every optional argument filled in with its
// default, so that two specs naming the same input ("rmat-er:14",
// "RMAT-ER:14:42:8", " rmat-er:14 ") canonicalize identically. File
// paths are path-cleaned; upload identities are already canonical.
// Spec.Canonical embeds this form, so every cache key is built from it.
func (s Source) Canonical() string { return s.canon }

// Generated reports whether the source is a synthetic generator spec,
// whose Load is deterministic in the canonical spec — safe to cache by
// Canonical — as opposed to a file path, whose contents may change
// between loads.
func (s Source) Generated() bool { return s.generated }

// ContentAddressed reports whether the source is an upload identity
// ("upload:format:sha256hex") naming graph bytes by their content
// digest. Such sources cannot Load — the bytes arrive out of band (the
// service parses the multipart upload and injects the graph) — but two
// identical identities always denote the same graph, so results are
// safe to cache by Canonical.
func (s Source) ContentAddressed() bool { return s.content }

// Load acquires the graph (reading or generating it) at machine width.
func (s Source) Load() (*Graph, error) {
	return s.LoadWorkers(0)
}

// LoadWorkers acquires the graph with the parallel parts of reading or
// generating bounded to the given worker count (<= 0 means machine
// width). Generated graphs are identical whatever the bound — sampling
// runs on fixed PRNG streams — so caching by Canonical stays sound
// while each service job loads inside its own budget lease.
func (s Source) LoadWorkers(workers int) (*Graph, error) {
	if s.load == nil {
		return nil, fmt.Errorf("chordal: empty source")
	}
	return s.load(workers)
}

// SourceSpecs documents the generator spec grammar understood by
// ParseSource, one spec per line, with each family's parameter bounds.
// ParseSource refuses a spec outside them with the generator's own
// check (rmat.Check, synth.CheckGNM and its siblings). A bio downscale
// below 1 loads as 1, so it canonicalizes to 1.
const SourceSpecs = `rmat-er:scale[:seed[:edgefactor]]   R-MAT, uniform quadrants (1<=scale<=30, edgefactor>=1)
rmat-g:scale[:seed[:edgefactor]]    R-MAT, skewed (communities), same bounds
rmat-b:scale[:seed[:edgefactor]]    R-MAT, heavily skewed, same bounds
gse5140-crt[:downscale[:seed]]      bio suite (also -unt, gse17072-ctl, -non; downscale<1 reads as 1)
gnm:n:m[:seed]                      uniform random G(n,m) (0<=m<=n(n-1)/2)
ws:n:k:beta[:seed]                  Watts-Strogatz small world (1<=k, 2k<n, 0<=beta<=1)
geo:n:radius[:seed]                 random geometric (n>=0, 0<radius<=1)
ktree:n:k[:seed]                    k-tree, chordal ground truth (1<=k<n)
<path>                              graph file (.bin/.mtx/edge list)`

// UploadSource returns the canonical content-addressed source identity
// of uploaded graph bytes: "upload:" plus the decode format and the
// full SHA-256 content digest. The format is part of the identity
// because the same bytes decode to different graphs under different
// parsers (Matrix Market is 1-based with comment banners; edge lists
// are 0-based); within one format, re-submitting the same bytes shares
// one identity no matter the filename. Takes the digest rather than
// the bytes so callers can hash a streamed upload without buffering it.
func UploadSource(format string, digest [sha256.Size]byte) string {
	return "upload:" + strings.ToLower(format) + ":" + hex.EncodeToString(digest[:])
}

// ParseSource parses a file path, generator spec, or upload identity.
// Any spec whose first colon-separated field is not a known generator
// family (or "upload") is treated as a file path. Surrounding
// whitespace is ignored.
func ParseSource(spec string) (Source, error) {
	spec = strings.TrimSpace(spec)
	fields := strings.Split(spec, ":")
	head := strings.ToLower(fields[0])
	args := fields[1:]

	intArg := func(i int, name string, def int64) (int64, error) {
		if i >= len(args) || args[i] == "" {
			return def, nil
		}
		v, err := strconv.ParseInt(args[i], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("chordal: source %q: bad %s %q", spec, name, args[i])
		}
		return v, nil
	}
	floatArg := func(i int, name string) (float64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("chordal: source %q: missing %s", spec, name)
		}
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("chordal: source %q: bad %s %q", spec, name, args[i])
		}
		return v, nil
	}

	switch head {
	case "upload":
		// A content-addressed identity minted by UploadSource: already
		// canonical, never loadable here — the bytes arrive out of band.
		if len(args) != 2 || args[1] == "" {
			return Source{}, fmt.Errorf("chordal: source %q: want upload:format:sha256hex", spec)
		}
		return Source{spec, spec, false, true, func(int) (*Graph, error) {
			return nil, fmt.Errorf("chordal: upload source %q has no loadable bytes; inject the parsed graph as the run input", spec)
		}}, nil

	case "rmat-er", "rmat-g", "rmat-b":
		preset := map[string]rmat.Preset{"rmat-er": rmat.ER, "rmat-g": rmat.G, "rmat-b": rmat.B}[head]
		scale, err := intArg(0, "scale", -1)
		if err != nil {
			return Source{}, err
		}
		if scale < 0 {
			return Source{}, fmt.Errorf("chordal: source %q: missing scale", spec)
		}
		seed, err := intArg(1, "seed", 42)
		if err != nil {
			return Source{}, err
		}
		edgeFactor, err := intArg(2, "edgefactor", 8)
		if err != nil {
			return Source{}, err
		}
		if err := rmat.Check(int(scale), int(edgeFactor)); err != nil {
			return Source{}, fmt.Errorf("chordal: source %q: %w", spec, err)
		}
		canon := fmt.Sprintf("%s:%d:%d:%d", head, scale, seed, edgeFactor)
		return Source{spec, canon, true, false, func(workers int) (*Graph, error) {
			p := rmat.PresetParams(preset, int(scale), uint64(seed))
			p.EdgeFactor = int(edgeFactor)
			p.Workers = workers
			return rmat.Generate(p)
		}}, nil

	case "gse5140-crt", "gse5140-unt", "gse17072-ctl", "gse17072-non":
		dataset := map[string]biogen.Dataset{
			"gse5140-crt": biogen.GSE5140CRT, "gse5140-unt": biogen.GSE5140UNT,
			"gse17072-ctl": biogen.GSE17072CTL, "gse17072-non": biogen.GSE17072NON,
		}[head]
		downscale, err := intArg(0, "downscale", 8)
		if err != nil {
			return Source{}, err
		}
		// biogen.PresetParams reads a downscale below 1 as 1; the key
		// names the value that loads.
		downscale = max(downscale, 1)
		seed, err := intArg(1, "seed", 42)
		if err != nil {
			return Source{}, err
		}
		canon := fmt.Sprintf("%s:%d:%d", head, downscale, seed)
		return Source{spec, canon, true, false, func(workers int) (*Graph, error) {
			p := biogen.PresetParams(dataset, int(downscale), uint64(seed))
			p.Workers = workers
			return biogen.Generate(p)
		}}, nil

	case "gnm":
		n, err := intArg(0, "n", -1)
		if err != nil {
			return Source{}, err
		}
		m, err := intArg(1, "m", -1)
		if err != nil {
			return Source{}, err
		}
		if n < 0 || m < 0 {
			return Source{}, fmt.Errorf("chordal: source %q: need gnm:n:m", spec)
		}
		if err := synth.CheckGNM(int(n), m); err != nil {
			return Source{}, fmt.Errorf("chordal: source %q: %w", spec, err)
		}
		seed, err := intArg(2, "seed", 42)
		if err != nil {
			return Source{}, err
		}
		canon := fmt.Sprintf("gnm:%d:%d:%d", n, m, seed)
		return Source{spec, canon, true, false, func(workers int) (*Graph, error) {
			return synth.GNM(int(n), m, uint64(seed), workers)
		}}, nil

	case "ws":
		n, err := intArg(0, "n", -1)
		if err != nil {
			return Source{}, err
		}
		k, err := intArg(1, "k", -1)
		if err != nil {
			return Source{}, err
		}
		if n < 0 || k < 0 {
			return Source{}, fmt.Errorf("chordal: source %q: need ws:n:k:beta", spec)
		}
		beta, err := floatArg(2, "beta")
		if err != nil {
			return Source{}, err
		}
		if err := synth.CheckWattsStrogatz(int(n), int(k), beta); err != nil {
			return Source{}, fmt.Errorf("chordal: source %q: %w", spec, err)
		}
		seed, err := intArg(3, "seed", 42)
		if err != nil {
			return Source{}, err
		}
		canon := fmt.Sprintf("ws:%d:%d:%s:%d", n, k, strconv.FormatFloat(beta, 'g', -1, 64), seed)
		return Source{spec, canon, true, false, func(workers int) (*Graph, error) {
			return synth.WattsStrogatz(int(n), int(k), beta, uint64(seed), workers)
		}}, nil

	case "geo":
		n, err := intArg(0, "n", -1)
		if err != nil {
			return Source{}, err
		}
		if n < 0 {
			return Source{}, fmt.Errorf("chordal: source %q: need geo:n:radius", spec)
		}
		radius, err := floatArg(1, "radius")
		if err != nil {
			return Source{}, err
		}
		if err := synth.CheckRandomGeometric(int(n), radius); err != nil {
			return Source{}, fmt.Errorf("chordal: source %q: %w", spec, err)
		}
		seed, err := intArg(2, "seed", 42)
		if err != nil {
			return Source{}, err
		}
		canon := fmt.Sprintf("geo:%d:%s:%d", n, strconv.FormatFloat(radius, 'g', -1, 64), seed)
		return Source{spec, canon, true, false, func(workers int) (*Graph, error) {
			return synth.RandomGeometric(int(n), radius, uint64(seed), workers)
		}}, nil

	case "ktree":
		n, err := intArg(0, "n", -1)
		if err != nil {
			return Source{}, err
		}
		k, err := intArg(1, "k", -1)
		if err != nil {
			return Source{}, err
		}
		if n < 0 || k < 0 {
			return Source{}, fmt.Errorf("chordal: source %q: need ktree:n:k", spec)
		}
		if err := synth.CheckKTree(int(n), int(k)); err != nil {
			return Source{}, fmt.Errorf("chordal: source %q: %w", spec, err)
		}
		seed, err := intArg(2, "seed", 42)
		if err != nil {
			return Source{}, err
		}
		canon := fmt.Sprintf("ktree:%d:%d:%d", n, k, seed)
		return Source{spec, canon, true, false, func(workers int) (*Graph, error) {
			return synth.KTree(int(n), int(k), uint64(seed), workers)
		}}, nil
	}
	// Anything else is a file path.
	return Source{spec, filepath.Clean(spec), false, false, func(workers int) (*Graph, error) {
		return graph.LoadFileWorkers(spec, workers)
	}}, nil
}
