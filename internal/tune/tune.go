// Package tune reports the kernel configuration a process runs under.
// The extraction kernel has one fixed configuration: the merge-scan
// subset test, the parallel-loop chunk size core.Grain, and machine
// width when a run leaves its worker count unset. Nothing is measured
// at startup.
//
// Only the benchmark module (perfbench) still imports this package, to
// stamp its results. It goes with the next change to perfbench, which
// drops that import (ROADMAP.md, item 2).
package tune

import "chordal/internal/core"

// Profile is the kernel configuration of this process.
type Profile struct {
	// Grain is the parallel-for chunk size of the extraction loop.
	Grain int
	// DegreeThreshold is -1: the subset test is always the merge scan.
	DegreeThreshold int
	// Source records how the profile was decided; always "fixed".
	Source string
}

// Current returns the fixed kernel configuration. It measures nothing.
func Current() Profile {
	return Profile{Grain: core.Grain, DegreeThreshold: -1, Source: "fixed"}
}
