package tune

import (
	"testing"

	"chordal/internal/core"
)

// TestCurrentFixed pins the profile perfbench stamps on its results:
// the kernel's one fixed configuration.
func TestCurrentFixed(t *testing.T) {
	want := Profile{Grain: core.Grain, DegreeThreshold: -1, Source: "fixed"}
	if got := Current(); got != want {
		t.Fatalf("Current() = %+v, want %+v", got, want)
	}
}
