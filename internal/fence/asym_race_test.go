//go:build race

package fence

import "testing"

// TestRaceBuildIsAtomic: under the race detector a plain store beside
// atomic loads would be reported as a race, so the build keeps atomics.
func TestRaceBuildIsAtomic(t *testing.T) {
	if Asymmetric() {
		t.Fatal("race builds must publish with atomic stores")
	}
}
