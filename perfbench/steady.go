package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness mode
// reads: each end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadyVerdict compares one metric's two sets of runs.
type steadyVerdict struct {
	Median1 float64 `json:"median1"`
	Median2 float64 `json:"median2"`
	// Spread is the interquartile range of all runs over their median.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// Worse is how much worse the second median is than the first, as a
	// share of the first (negative when it is better).
	Worse float64 `json:"worse"`
	Agree bool    `json:"agree"`
	// Steady reports a spread below a third of the bound (setup_s, whose
	// spread is not bounded, always reads true).
	Steady bool `json:"steady"`
}

// verdict judges one metric's two sets of values.
func verdict(set1, set2 []float64, better string, bound float64, spreadBounded bool) steadyVerdict {
	all := append(append([]float64(nil), set1...), set2...)
	v := steadyVerdict{Median1: median(set1), Median2: median(set2), Bound: bound}
	if med := median(all); med != 0 {
		q1, q3 := quartiles(all)
		v.Spread = (q3 - q1) / med
	}
	if v.Median1 != 0 {
		v.Worse = (v.Median2 - v.Median1) / v.Median1
		if better == "higher" {
			v.Worse = -v.Worse
		}
	}
	v.Agree = v.Worse <= bound
	v.Steady = !spreadBounded || v.Spread <= bound/3
	return v
}

// runSteady runs the workload in two sets of n runs, each run in a fresh
// process on its own seed, and reports per end-to-end metric whether the
// two medians agree within BENCHMARK.json's bound. It exits non-zero if
// any run fails or any metric disagrees.
func runSteady(cfg config, n int, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: steady mode needs BENCHMARK.json in the working directory:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var sets [2]map[string][]float64
	for s := range sets {
		sets[s] = make(map[string][]float64)
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(s*n+i)
			args := []string{"--workload", cfg.workload, fmt.Sprintf("--seed=%d", seed),
				fmt.Sprintf("--seconds=%g", cfg.seconds), "--trace=0"}
			if cfg.tiny {
				args = append(args, "--tiny")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: run seed %d: %v\n", seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rl resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
				fmt.Fprintf(stderr, "perfbench: run seed %d: bad result line: %v\n", seed, err)
				return 1
			}
			if !rl.Correct || rl.Failed > 0 {
				fmt.Fprintf(stderr, "perfbench: run seed %d: %d of %d operations failed\n", seed, rl.Failed, rl.Attempted)
				return 1
			}
			var parts []string
			for _, m := range bf.EndToEnd {
				v := rl.Metrics[m.Name].Value
				sets[s][m.Name] = append(sets[s][m.Name], v)
				parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v))
			}
			fmt.Fprintf(stdout, "# set %d seed %d: %s\n", s+1, seed, strings.Join(parts, " "))
		}
	}
	ok := true
	verdicts := make(map[string]steadyVerdict)
	fmt.Fprintf(stdout, "# %-16s %12s %12s %8s %8s %8s %6s %6s\n", "metric", "median1", "median2", "spread", "worse", "bound", "agree", "steady")
	for _, m := range bf.EndToEnd {
		v := verdict(sets[0][m.Name], sets[1][m.Name], m.Better, m.Bound, m.Name != "setup_s")
		verdicts[m.Name] = v
		ok = ok && v.Agree
		fmt.Fprintf(stdout, "# %-16s %12.4f %12.4f %8.4f %8.4f %8.4f %6t %6t\n", m.Name, v.Median1, v.Median2, v.Spread, v.Worse, v.Bound, v.Agree, v.Steady)
	}
	line, _ := json.Marshal(map[string]any{"workload": cfg.workload, "runs": 2 * n, "agree": ok, "metrics": verdicts})
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}
