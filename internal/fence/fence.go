// Package fence holds the repository's two answers to the paper's fence
// argument: a real, asymmetric fence for the fence-free hazard-pointer
// schemes, and a latency model for the fence classic hazard pointers pay.
//
// The paper's central performance argument is that the classic hazard
// pointer scheme pays an mfence-class instruction ("hundreds of processor
// cycles", §3.2) after every hazard pointer store during traversal, while
// Cadence's stores need no fence, because the rooster's context switch
// drains every core's store buffer (§5.1).
//
// Asymmetric publication (publish.go) makes the Cadence and QSense side
// literal. Publish is a plain store on linux/amd64 builds without the race
// detector when the kernel accepts a membarrier(2) private-expedited
// registration, and an atomic store otherwise. Heavy is the rooster's half:
// one process-wide membarrier per pass, which drains every store buffer the
// plain stores may sit in. The mode is chosen once, at package
// initialization; Asymmetric reports it. README.md, "Hazard-pointer
// publication and the rooster", gives the safety argument.
//
// Classic HP keeps its modeled fence. Go complicates a literal
// reproduction there: a sync/atomic store is already sequentially
// consistent (XCHG on amd64), so the *ordering* a fence would provide is
// inherent and the relative latency gap between a fenced and an unfenced
// publication collapses. A Model therefore represents a fence cost in
// nanoseconds, paid as a calibrated busy-spin by the schemes that fence
// (classic HP), and not paid by the schemes that do not (Cadence, QSense).
// The default of 50ns corresponds to ~100 cycles on the paper's 2.1 GHz
// testbed — the low end of "hundreds of processor cycles" (§3.2) — so the
// reproduced HP penalty is, if anything, understated. The cost is modeled,
// not measured.
package fence

import (
	"sync"
	"time"
)

// DefaultCost is the modeled latency of one full memory fence: ~100 cycles
// on the paper's 2.1 GHz Opterons ("hundreds of processor cycles", §3.2).
const DefaultCost = 50 * time.Nanosecond

// Model is a fence latency model. The zero value is a free fence (no cost),
// useful for ablations.
//
// A Model must not be shared across concurrently-fencing goroutines: its
// sink field is written on every Full call, and sharing it would add real
// cross-core cache-line contention that the *model* is not supposed to
// have (a hardware mfence stalls only its own core). Create one Model per
// worker; it is a few bytes.
type Model struct {
	iters int
	cost  time.Duration
	// sink defeats dead-code elimination of the spin loop. Written only
	// by the owning worker and read by nobody else, so it is race-free;
	// padded so adjacent Models never share a cache line.
	sink uint32
	_    [52]byte
}

// NewModel returns a model that makes Full() consume approximately cost.
func NewModel(cost time.Duration) *Model {
	if cost <= 0 {
		return &Model{}
	}
	return &Model{iters: itersFor(cost), cost: cost}
}

// Cost returns the latency this model was built for.
func (m *Model) Cost() time.Duration { return m.cost }

// Full pays the modeled latency of a full memory barrier. In Go the ordering
// itself is provided by the atomic store that precedes this call; Full
// models only the stall an mfence would add on the paper's hardware.
func (m *Model) Full() {
	if m.iters > 0 {
		m.sink = spin(m.iters, m.sink)
	}
}

//go:noinline
func spin(n int, seed uint32) uint32 {
	x := seed ^ 0x9e3779b9
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
	}
	return x
}

var (
	calOnce  sync.Once
	nsPerIt  float64
	calIters = 1 << 20
)

// NsPerIteration reports the calibrated duration of one spin iteration on
// this machine. The first call measures; later calls return the cached value.
func NsPerIteration() float64 {
	calOnce.Do(func() {
		// Warm up, then take the best of three to dodge scheduler noise.
		s := spin(calIters, 0)
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s = spin(calIters, s)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		calSink = s
		nsPerIt = float64(best.Nanoseconds()) / float64(calIters)
		if nsPerIt <= 0 {
			nsPerIt = 0.5 // pathological timer; assume ~2 iters/ns
		}
	})
	return nsPerIt
}

var calSink uint32

func itersFor(cost time.Duration) int {
	it := int(float64(cost.Nanoseconds()) / NsPerIteration())
	if it < 1 {
		it = 1
	}
	return it
}
