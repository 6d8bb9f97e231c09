package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: values below
// 2^subBits are exact, and every power of two above is split into 2^subBits
// linear buckets (relative error under 0.4%). Quantiles interpolate within
// a bucket by rank, so two runs rarely report bit-identical figures merely
// because they share a bucket. Single writer; combine with merge.
type hist struct {
	counts []uint64
	n      uint64
	sum    uint64
}

const subBits = 8

func newHist() *hist { return &hist{counts: make([]uint64, (64-subBits)<<subBits)} }

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns the lowest value and the width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	v := uint64(max(d, 0))
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds (0 for an empty hist).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// median of xs (NaN for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// windows splits the measured interval into fixed sub-windows so every
// end-to-end figure can be reported as the median across them: one second
// disturbed by a neighbour on a shared machine then moves a run's figure by
// one rank, not by its full size.
type windows struct {
	start time.Time
	width time.Duration
	n     int
}

// at maps an instant to its window index: -1 during warm-up, n after the end.
func (w windows) at(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	return min(int(d/w.width), w.n)
}

// windowWidth is one map_stall stall cycle, so every window holds the same
// share of stalled time.
const windowWidth = 500 * time.Millisecond

// measured is the run's measured interval: seconds long, after the warm-up
// that follows start.
func measured(start time.Time, seconds int) windows {
	return windows{start: start.Add(warmup), width: windowWidth, n: seconds * int(time.Second/windowWidth)}
}

func (w windows) end() time.Time { return w.start.Add(time.Duration(w.n) * w.width) }

// recorder is one load goroutine's per-window latency histograms and op
// counts.
type recorder struct {
	lat []*hist
	ops []uint64
}

func newRecorder(n int) *recorder {
	r := &recorder{lat: make([]*hist, n), ops: make([]uint64, n)}
	for i := range r.lat {
		r.lat[i] = newHist()
	}
	return r
}

// windowFigures merges recorders window by window and returns the medians
// across windows of throughput, p50 and p99 (µs), plus the total op count.
func windowFigures(w windows, rs []*recorder) (opsPerS, p50us, p99us float64, total uint64) {
	var tput, p50, p99 []float64
	for i := 0; i < w.n; i++ {
		h := newHist()
		var ops uint64
		for _, r := range rs {
			h.merge(r.lat[i])
			ops += r.ops[i]
		}
		total += ops
		tput = append(tput, float64(ops)/w.width.Seconds())
		p50 = append(p50, h.quantile(0.50)/1e3)
		p99 = append(p99, h.quantile(0.99)/1e3)
	}
	fmt.Printf("windows: ops_per_s %.0f\n", tput)
	fmt.Printf("windows: p50_us %.3f\n", p50)
	fmt.Printf("windows: p99_us %.3f\n", p99)
	return median(tput), median(p50), median(p99), total
}

// gauge is what the sampler polls: the map's live node count (keys plus
// spilled values) and its unreclaimed (pending) node count.
type gauge func() (live, pending int64)

// sampler polls a gauge every samplePeriod over the measured interval and
// keeps each window's peak of (live+pending)/live, the space amplification,
// along with pending's peak and mean and (when traced) the peak in-use heap.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup

	ampPeak      []float64 // per window; 0 where no sample landed
	pendingPeak  int64
	pendingSum   float64
	pendingN     int
	heapPeak     uint64
	readHeapPeak bool
}

const samplePeriod = 5 * time.Millisecond

func startSampler(w windows, g gauge, traced bool) *sampler {
	s := &sampler{stop: make(chan struct{}), ampPeak: make([]float64, w.n), readHeapPeak: traced}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				i := w.at(now)
				if i < 0 || i >= w.n {
					continue
				}
				live, pending := g()
				if live > 0 {
					s.ampPeak[i] = max(s.ampPeak[i], float64(live+pending)/float64(live))
				}
				s.pendingPeak = max(s.pendingPeak, pending)
				s.pendingSum += float64(pending)
				s.pendingN++
				if s.readHeapPeak {
					metrics.Read(heap)
					s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64()+heap[1].Value.Uint64())
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median across windows of each
// window's peak space amplification: like the other end-to-end figures, a
// window in which a load goroutine was descheduled (and a grace period
// waited for it) moves the figure by one rank, not by its full size.
func (s *sampler) finish() float64 {
	close(s.stop)
	s.done.Wait()
	var peaks []float64
	for _, p := range s.ampPeak {
		if p > 0 {
			peaks = append(peaks, p)
		}
	}
	fmt.Printf("windows: space_amp_peak %.4f\n", peaks)
	if len(peaks) == 0 {
		return 0
	}
	return median(peaks)
}

func (s *sampler) pendingMean() float64 {
	if s.pendingN == 0 {
		return 0
	}
	return s.pendingSum / float64(s.pendingN)
}

// liveKeys is a per-goroutine count of keys present, kept from Put and
// Delete return values; padded so two writers never share a cache line.
type liveKeys struct {
	n atomic.Int64
	_ [56]byte
}
