package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps every experiment under a second for CI.
func tinyConfig() Config {
	return Config{
		Scales:       []int{8},
		BioDownscale: 64,
		MaxProcs:     2,
		Seed:         1,
		SmallScale:   8,
		Trials:       1,
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, name := range Names() {
		if name == "all" {
			continue
		}
		var buf bytes.Buffer
		if err := Run(&buf, name, tinyConfig()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "fig99", tinyConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Content(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "RMAT-ER(8)", "RMAT-G(8)", "RMAT-B(8)",
		"GSE5140(CRT)", "GSE5140(UNT)", "GSE17072(CTL)", "GSE17072(NON)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestPctContent checks the §V table: it says it extracts at one
// worker, and two runs print the same table, iteration counts included.
func TestPctContent(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		if err := Pct(&buf, tinyConfig()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	if !strings.Contains(first, "%") {
		t.Fatal("Pct output has no percentages")
	}
	if header, _, _ := strings.Cut(first, "\n"); !strings.Contains(header, "(one worker)") {
		t.Errorf("Pct header %q does not say it runs at one worker", header)
	}
	if second := run(); second != first {
		t.Errorf("two Pct runs differ:\n%s\n%s", first, second)
	}
}

// TestFig7ShowsIterations checks Figure 7's table: it prints iteration
// counts, says it extracts at one worker, and two runs print the same
// text, every queue size included.
func TestFig7ShowsIterations(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		if err := Fig7(&buf, tinyConfig()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	if !strings.Contains(first, "iterations") {
		t.Fatal("Fig7 output missing iteration counts")
	}
	if header, _, _ := strings.Cut(first, "\n"); !strings.Contains(header, "(one worker)") {
		t.Errorf("Fig7 header %q does not say it runs at one worker", header)
	}
	if second := run(); second != first {
		t.Errorf("two Fig7 runs differ:\n%s\n%s", first, second)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Scales) == 0 || cfg.SmallScale <= 0 || cfg.Trials <= 0 {
		t.Fatalf("bad default config %+v", cfg)
	}
	if cfg.maxProcs() < 1 {
		t.Fatal("maxProcs < 1")
	}
	if len(Names()) != 11 {
		t.Fatalf("Names() = %v", Names())
	}
}
