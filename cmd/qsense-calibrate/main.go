// qsense-calibrate reports this machine's characteristics for the fence
// cost model (README.md, "Hazard-pointer publication and the rooster"):
// the calibrated spin-loop rate, the measured cost of an atomic store and
// of Cadence/QSense's fence-free publication (fence.Publish, in whichever
// mode this process runs), the cost of one rooster-pass barrier
// (fence.Heavy), and the effective cost of fenced publication at several
// modeled fence latencies. Use it to pick a -fence value comparable to the
// mfence penalty on hardware you care about.
package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"qsense/internal/fence"
)

func main() {
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d GOARCH=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOARCH)
	fmt.Printf("spin calibration: %.3f ns/iteration\n", fence.NsPerIteration())

	var slot atomic.Uint64
	const n = 2_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		slot.Store(uint64(i))
	}
	fmt.Printf("atomic store: %v\n", time.Since(t0)/n)

	t0 = time.Now()
	for i := 0; i < n; i++ {
		fence.Publish(&slot, uint64(i))
	}
	// Fractional ns: a plain store costs well under one.
	fmt.Printf("fence-free publication (Cadence/QSense, asymmetric=%v): %.2fns\n",
		fence.Asymmetric(), float64(time.Since(t0).Nanoseconds())/n)

	const passes = 1000
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		fence.Heavy()
	}
	fmt.Printf("rooster-pass barrier (fence.Heavy, asymmetric=%v): %v\n", fence.Asymmetric(), time.Since(t0)/passes)

	for _, cost := range []time.Duration{0, 10 * time.Nanosecond, fence.DefaultCost, 50 * time.Nanosecond, 100 * time.Nanosecond} {
		m := fence.NewModel(cost)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			slot.Store(uint64(i))
			m.Full()
		}
		fmt.Printf("fenced publication, model %-6v (classic HP): %v\n", cost, time.Since(t0)/n)
	}
	fmt.Printf("\ndefault fence model: %v (see README.md, \"Hazard-pointer publication and the rooster\")\n", fence.DefaultCost)
}
