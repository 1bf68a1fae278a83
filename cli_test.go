package chordal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"chordal"
)

// TestCLIEndToEnd drives the four command-line tools through a full
// generate → analyze → extract → verify round trip, the workflow the
// README documents. It is skipped when the go tool is unavailable.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	subPath := filepath.Join(dir, "sub.txt")

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(goTool, append([]string{"run"}, args...)...)
		cmd.Dir = repoRoot
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := run("./cmd/graphgen", "-kind", "rmat-g", "-scale", "9", "-seed", "5", "-out", graphPath)
	if !strings.Contains(out, "V=512") {
		t.Fatalf("graphgen output: %s", out)
	}

	out = run("./cmd/graphstats", "-in", graphPath, "-chordal")
	if !strings.Contains(out, "chordal: no") {
		t.Fatalf("graphstats should report a hole witness: %s", out)
	}

	out = run("./cmd/chordal", "-in", graphPath, "-out", subPath, "-verify", "-repair")
	if !strings.Contains(out, "verified: output is chordal") {
		t.Fatalf("chordal CLI output: %s", out)
	}
	if !strings.Contains(out, "output is maximal") {
		t.Fatalf("repair did not reach maximality: %s", out)
	}

	out = run("./cmd/graphstats", "-in", subPath, "-chordal")
	if !strings.Contains(out, "chordal: yes") {
		t.Fatalf("extracted subgraph not verified chordal: %s", out)
	}

	// "serial" is an alias of the dearing engine from start vertex 0.
	out = run("./cmd/chordal", "-in", graphPath, "-engine", "serial")
	if !strings.Contains(out, "dearing (start vertex 0)") {
		t.Fatalf("serial alias output: %s", out)
	}

	out = run("./cmd/chordal", "-in", graphPath, "-shards", "4", "-verify")
	if !strings.Contains(out, "sharded (4 shards)") || !strings.Contains(out, "verified: output is chordal") {
		t.Fatalf("sharded mode output: %s", out)
	}

	out = run("./cmd/benchrunner", "-exp", "pct", "-scales", "8", "-bio-downscale", "64")
	if !strings.Contains(out, "RMAT-ER(8)") {
		t.Fatalf("benchrunner output: %s", out)
	}
}

// TestExampleOutputs runs the examples whose READMEs pin their output
// and compares every printed line with the README's "Expected output"
// block, where "..." inside a line matches any text. It is skipped when
// the go tool is unavailable.
func TestExampleOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, name := range []string{"cliques", "genecorrelation", "ordering", "quickstart"} {
		t.Run(name, func(t *testing.T) {
			readme, err := os.ReadFile(filepath.Join("examples", name, "README.md"))
			if err != nil {
				t.Fatal(err)
			}
			_, rest, ok := strings.Cut(string(readme), "\nExpected output")
			if ok {
				_, rest, ok = strings.Cut(rest, "\n```\n")
			}
			block, _, closed := strings.Cut(rest, "\n```")
			if !ok || !closed {
				t.Fatal("README has no fenced block after its Expected output paragraph")
			}
			want := strings.Split(block, "\n")
			out, err := exec.Command(goTool, "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			got := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
			if len(got) != len(want) {
				t.Fatalf("%d output lines, README pins %d:\n%s", len(got), len(want), out)
			}
			for i, line := range want {
				pattern := "^" + strings.ReplaceAll(regexp.QuoteMeta(line), `\.\.\.`, ".*") + "$"
				if !regexp.MustCompile(pattern).MatchString(got[i]) {
					t.Errorf("line %d: printed %q, README pins %q", i+1, got[i], line)
				}
			}
		})
	}
}

// TestCLIModeConflicts pins the engine-conflict contract: flag
// combinations that used to pick one engine by silent precedence must
// exit non-zero with an error naming the conflict.
func TestCLIModeConflicts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-engine", "dearing", "-shards", "4"},
		{"-engine", "serial", "-shards", "4"},
		{"-partition", "2", "-shards", "4"},
		{"-engine", "parallel", "-shards", "4"},
		{"-engine", "serial", "-partition", "2"},
		{"-engine", "warp"},
	}
	for _, flags := range cases {
		args := append([]string{"run", "./cmd/chordal", "-in", "gnm:100:300:1"}, flags...)
		cmd := exec.Command(goTool, args...)
		cmd.Dir = repoRoot
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("chordal %v exited 0; want a conflict error\n%s", flags, out)
			continue
		}
		if !strings.Contains(string(out), "conflict") && !strings.Contains(string(out), "unknown engine") {
			t.Errorf("chordal %v error does not name the conflict:\n%s", flags, out)
		}
	}
}

// TestCLIBadGeneratorSpec pins that a generator spec outside its
// family's parameter bounds ends the CLI with an error naming the
// bound, not with the generator's precondition panic.
func TestCLIBadGeneratorSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ spec, want string }{
		{"ws:10:20:0.1", "2k < n"},
		{"ktree:5:0", "1 <= k"},
		{"gnm:10:1000", "possible edges"},
		{"rmat-er:31", "scale 31 out of range [1,30]"},
		{"rmat-g:0", "scale 0 out of range [1,30]"},
		{"rmat-b:10:42:0", "edge factor 0 must be >= 1"},
	} {
		cmd := exec.Command(goTool, "run", "./cmd/chordal", "-in", c.spec)
		cmd.Dir = repoRoot
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("chordal -in %s exited 0; want an error\n%s", c.spec, out)
			continue
		}
		if strings.Contains(string(out), "panic:") || !strings.Contains(string(out), c.want) {
			t.Errorf("chordal -in %s: want an error naming %q and no panic, got\n%s", c.spec, c.want, out)
		}
	}
}

// TestCLIStreamMode pipes an NDJSON delta feed into chordal -stream and
// checks the full contract: one admission event per decision on stdout,
// a trailing StreamReport under -json with a passing chordal verify, a
// canonical key equal to the library's stream spec, and an -out subgraph
// byte-identical to the library session driven with the same deltas.
func TestCLIStreamMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	subPath := filepath.Join(dir, "stream-sub.bin")

	// C4 plus a chord, mixing both delta line forms with noise lines.
	feed := "# C4 first\n0 1\n1 2\n2 3\n{\"u\":3,\"v\":0}\n\n0 2\n"
	cmd := exec.Command(goTool, "run", "./cmd/chordal",
		"-stream", "-repair", "-verify", "-json", "-out", subPath)
	cmd.Dir = repoRoot
	cmd.Stdin = strings.NewReader(feed)
	raw, err := cmd.Output()
	if err != nil {
		t.Fatalf("chordal -stream: %v\n%s", err, raw)
	}

	// Stdout is a sequence of JSON values: NDJSON events, then the report.
	dec := json.NewDecoder(bytes.NewReader(raw))
	events := map[string]int{}
	var last json.RawMessage
	for dec.More() {
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("stdout is not a JSON value stream: %v\n%s", err, raw)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(v, &probe) == nil && probe.Type != "" {
			events[probe.Type]++
		}
		last = v
	}
	// Four pushes admit, 3-0 defers (it closes the C4 before the chord
	// arrives), and the close-time repair pass re-admits it with its own
	// admit event: 5 admits + 1 defer.
	if events["admit"] != 5 || events["defer"] != 1 {
		t.Fatalf("events %v: want 5 admits and 1 defer", events)
	}
	if events["repair"] == 0 {
		t.Fatalf("events %v: want at least one repair pass event", events)
	}
	var rep chordal.StreamReport
	if err := json.Unmarshal(last, &rep); err != nil {
		t.Fatalf("trailing value is not a StreamReport: %v\n%s", err, last)
	}
	wantCanon, err := chordal.Spec{
		Mode:         chordal.ModeStream,
		EngineConfig: chordal.EngineConfig{Repair: true},
		Verify:       true,
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canonical != wantCanon {
		t.Errorf("CLI canonical\n %s\nlibrary canonical\n %s", rep.Canonical, wantCanon)
	}
	if rep.Verify == nil || !rep.Verify.Chordal {
		t.Fatalf("report verify %+v, want chordal", rep.Verify)
	}
	if rep.Stream.Pushed != 5 || rep.Input.Edges != 5 {
		t.Fatalf("report stream %+v input %+v, want 5 pushed / 5 input edges", rep.Stream, rep.Input)
	}

	// The written subgraph matches a library session fed the same deltas.
	lib, err := chordal.OpenStream(context.Background(),
		chordal.Spec{Mode: chordal.ModeStream, EngineConfig: chordal.EngineConfig{Repair: true}, Verify: true},
		chordal.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		if _, err := lib.Push(context.Background(), e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	libRes, err := lib.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	libPath := filepath.Join(dir, "lib-sub.bin")
	if err := chordal.SaveGraph(libPath, libRes.Subgraph); err != nil {
		t.Fatal(err)
	}
	cliBytes, err := os.ReadFile(subPath)
	if err != nil {
		t.Fatal(err)
	}
	libBytes, err := os.ReadFile(libPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cliBytes, libBytes) {
		t.Errorf("CLI stream subgraph (%d bytes) differs from library session (%d bytes)",
			len(cliBytes), len(libBytes))
	}

	// -stream conflicts with -in and -batch.
	for _, extra := range [][]string{{"-in", "gnm:100:300:1"}, {"-batch", "x.txt"}} {
		args := append([]string{"run", "./cmd/chordal", "-stream"}, extra...)
		cmd := exec.Command(goTool, args...)
		cmd.Dir = repoRoot
		cmd.Stdin = strings.NewReader("")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("chordal -stream %v exited 0; want a conflict error\n%s", extra, out)
		} else if !strings.Contains(string(out), "conflicts") {
			t.Errorf("chordal -stream %v error does not name the conflict:\n%s", extra, out)
		}
	}
}

// TestCLIJSONReport drives chordal -json and pins the cross-surface
// identity contract: the CLI's reported canonical key equals the
// library's Spec.Canonical for the same parameters, and the written
// subgraph is byte-identical to a library Spec.Run of that spec.
func TestCLIJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cliOut := filepath.Join(dir, "cli.bin")

	cmd := exec.Command(goTool, "run", "./cmd/chordal",
		"-in", "gnm:500:1500:3", "-shards", "2", "-verify", "-json", "-out", cliOut)
	cmd.Dir = repoRoot
	raw, err := cmd.Output()
	if err != nil {
		t.Fatalf("chordal -json: %v", err)
	}
	var rep struct {
		Spec struct {
			V      int    `json:"v"`
			Engine string `json:"engine"`
		} `json:"spec"`
		Canonical  string `json:"canonical"`
		Extraction *struct {
			Engine       string `json:"engine"`
			ChordalEdges int64  `json:"chordalEdges"`
			Shard        *struct {
				Shards int `json:"shards"`
			} `json:"shard"`
		} `json:"extraction"`
		Verify *struct {
			Chordal bool `json:"chordal"`
		} `json:"verify"`
		Timings []struct {
			Stage string `json:"stage"`
		} `json:"timings"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("chordal -json emitted unparseable output: %v\n%s", err, raw)
	}
	if rep.Spec.V != 1 || rep.Spec.Engine != "sharded" {
		t.Errorf("report spec %+v, want v1 sharded", rep.Spec)
	}
	if rep.Extraction == nil || rep.Extraction.Shard == nil || rep.Extraction.Shard.Shards != 2 {
		t.Errorf("report extraction %+v, want a 2-shard summary", rep.Extraction)
	}
	if rep.Verify == nil || !rep.Verify.Chordal {
		t.Errorf("report verify %+v, want chordal", rep.Verify)
	}
	if len(rep.Timings) == 0 {
		t.Error("report has no stage timings")
	}

	spec := chordal.Spec{
		Source:       "gnm:500:1500:3",
		EngineConfig: chordal.EngineConfig{Shards: 2},
		Verify:       true,
	}
	wantCanon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canonical != wantCanon {
		t.Errorf("CLI canonical\n %s\nlibrary canonical\n %s", rep.Canonical, wantCanon)
	}

	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Extraction.ChordalEdges != res.Subgraph.NumEdges() {
		t.Errorf("CLI reported %d chordal edges, library run extracted %d",
			rep.Extraction.ChordalEdges, res.Subgraph.NumEdges())
	}
	libOut := filepath.Join(dir, "lib.bin")
	if err := chordal.SaveGraph(libOut, res.Subgraph); err != nil {
		t.Fatal(err)
	}
	cliBytes, err := os.ReadFile(cliOut)
	if err != nil {
		t.Fatal(err)
	}
	libBytes, err := os.ReadFile(libOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cliBytes, libBytes) {
		t.Errorf("CLI-written subgraph (%d bytes) differs from library Spec.Run (%d bytes)",
			len(cliBytes), len(libBytes))
	}
}

// TestCLIJSONWorkers pins the one width report of a run: chordal -json
// gives the worker width the Algorithm 1 kernel ran at as
// extraction.workers, for every engine that runs it, and has no tuning
// object. -workers 1 reports 1; without the flag the width is the
// machine's, GOMAXPROCS capped at the CPU count.
func TestCLIJSONWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "chordal")
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/chordal")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/chordal: %v\n%s", err, out)
	}
	machine := min(2, runtime.NumCPU())
	for _, engine := range [][]string{
		{"-engine", "parallel"},
		{"-shards", "3"},
		{"-engine", "external", "-shards", "3"},
	} {
		for _, c := range []struct {
			flags []string
			want  int
		}{
			{[]string{"-workers", "1"}, 1},
			{nil, machine},
		} {
			args := append([]string{"-in", "rmat-er:9:7", "-json"}, engine...)
			args = append(args, c.flags...)
			cmd := exec.Command(bin, args...)
			cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
			raw, err := cmd.Output()
			if err != nil {
				t.Fatalf("chordal %v: %v", args, err)
			}
			var rep map[string]json.RawMessage
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatalf("chordal %v emitted unparseable output: %v", args, err)
			}
			if _, ok := rep["tuning"]; ok {
				t.Errorf("chordal %v: report has a tuning object", args)
			}
			var ex struct {
				Workers int `json:"workers"`
			}
			if err := json.Unmarshal(rep["extraction"], &ex); err != nil || ex.Workers != c.want {
				t.Errorf("chordal %v: extraction.workers = %d (%v), want %d", args, ex.Workers, err, c.want)
			}
		}
	}
}
