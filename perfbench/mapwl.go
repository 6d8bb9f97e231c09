package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"qsense"
	"qsense/internal/workload"
)

// The map_stall reader alternates a stall (lease held, no operations) with
// a stretch of sparse GETs. It never releases its lease in between, so a
// quiescence-based scheme cannot finish a grace period while it sleeps and
// QSense must fall back, then return to its fast path once it reads again.
// The reader reads in bursts because, with both CPUs busy, a 1 ms sleep
// wakes only every ~20 ms: single GETs would pass QSense's every-Q-th-Begin
// quiescent state less than once per stretch, and whether a cycle switched
// paths would be left to chance.
const (
	stallFor   = 250 * time.Millisecond
	stallCycle = 500 * time.Millisecond
	stallBurst = 64 // GETs per wake-up: two of QSense's default Q = 32
	stallGap   = time.Millisecond
)

// Fixed-length reruns behind reclaim.overhead_ns_per_op and the lease
// probe: a count rather than a time, so the leaking none scheme retires a
// bounded number of nodes.
const (
	rerunOpsPerWorker = 150_000
	leaseProbeOps     = 20_000
)

// workerSeed gives load goroutine id its own stream of the run's inputs.
func workerSeed(seed uint64, id int) uint64 {
	return seed*0x100000001b3 ^ uint64(id+1)*0x9E3779B97F4A7C15
}

func (s spec) key(r *workload.RNG) int64 {
	if s.theta > 0 {
		return r.ZipfKey(s.keys, s.theta)
	}
	return r.Key(s.keys)
}

// buildMap constructs the workload's map and fills every even key with a
// self-verifying value; it returns the map and the number of keys present.
func buildMap(sp spec, seed uint64) (*qsense.SkipMap, int64, error) {
	m, err := qsense.NewSkipMap(qsense.Options{Scheme: sp.scheme})
	if err != nil {
		return nil, 0, err
	}
	h, err := m.Acquire()
	if err != nil {
		m.Close()
		return nil, 0, err
	}
	defer h.Release()
	rng := workload.NewRNG(seed ^ 0xABCD)
	var val []byte
	var n int64
	for k := int64(0); k < sp.keys; k += 2 {
		val = workload.AppendPayload(val[:0], k, rng.Next(), valueSize)
		if h.Put(k, val) {
			n++
		}
	}
	return m, n, nil
}

// mapWorker is one load goroutine's state and tallies.
type mapWorker struct {
	sp    spec
	m     *qsense.SkipMap
	win   windows
	limit uint64 // stop after this many ops (0: at the end of the last window)
	rng   *workload.RNG
	mix   workload.Mix
	live  *liveKeys
	rec   *recorder
	id    uint64
	tally

	h   qsense.MapHandle // the lease held right now, if any
	op  workload.Op      // the op in flight, for failure accounting
	val []byte
	buf []byte
}

// run drives ops until the window ends or the limit is reached. A panic in
// an operation (the pool's use-after-free detector) is counted as a failed
// op of its kind; the lease it happened under is released and a fresh one
// taken, and the load goes on: failures are reported, never retried.
func (w *mapWorker) run() {
	for !w.segment() {
	}
	if w.h != nil {
		w.h.Release()
		w.h = nil
	}
}

func (w *mapWorker) segment() (done bool) {
	defer func() {
		if p := recover(); p != nil {
			w.panics++
			w.fail(w.op, fmt.Sprint(p))
			w.firstStack(p)
			if w.h != nil {
				w.h.Release()
				w.h = nil
			}
			done = false
		}
	}()
	for {
		if w.h == nil && !w.sp.churn {
			if !w.acquire() {
				return true
			}
		}
		var tg, ta, tb time.Time
		if w.lay != nil {
			tg = time.Now()
		}
		k := w.sp.key(w.rng)
		w.op = w.mix.Choose(w.rng.Next())
		if w.op == workload.OpDelete && w.sp.noDelete {
			w.op = workload.OpInsert
		}
		if w.op == workload.OpInsert {
			w.val = workload.AppendPayload(w.val[:0], k, w.rng.Next(), valueSize)
		}
		w.attempted++
		t0 := time.Now()
		if w.sp.churn {
			if !w.acquire() {
				return true
			}
			if w.lay != nil {
				ta = time.Now()
			}
		}
		var got []byte
		var ok bool
		switch w.op {
		case workload.OpSearch:
			got, ok = w.h.GetAppend(k, w.buf[:0])
		case workload.OpInsert:
			if w.h.Put(k, w.val) {
				w.live.n.Add(1)
			}
		case workload.OpDelete:
			if ok = w.h.Delete(k); ok {
				w.live.n.Add(-1)
			}
		}
		if w.sp.churn {
			if w.lay != nil {
				tb = time.Now()
			}
			w.h.Release()
			w.h = nil
		}
		t1 := time.Now()
		switch w.op {
		case workload.OpSearch:
			w.gets++
			if ok {
				w.getHits++
				w.buf = got
				w.verify(w.op, got, k)
			}
		case workload.OpDelete:
			w.deletes++
			if ok {
				w.deleteHits++
			}
		}
		i := w.win.at(t1)
		if w.limit == 0 && i >= w.win.n {
			return true
		}
		if i >= 0 {
			i = min(i, w.win.n-1)
			w.rec.lat[i].record(t1.Sub(t0))
			w.rec.ops[i]++
			if w.lay != nil {
				w.traceOp(t0, ta, tb, t1, tg)
			}
		}
		if w.limit > 0 && w.attempted >= w.limit {
			return true
		}
	}
}

func (w *mapWorker) acquire() bool {
	h, err := w.m.Acquire()
	if err != nil {
		w.fail(w.op, "acquire: "+err.Error())
		return false
	}
	w.h = h
	return true
}

// traceOp files one measured op into the layer histograms and, for one
// request in spanEvery, keeps its spans.
func (w *mapWorker) traceOp(t0, ta, tb, t1, tg time.Time) {
	l := w.lay
	l.gen.record(t0.Sub(tg))
	opStart, opEnd := t0, t1
	if w.sp.churn {
		l.acquire.record(ta.Sub(t0))
		l.release.record(t1.Sub(tb))
		opStart, opEnd = ta, tb
	}
	name := "map." + opNames[w.op]
	[3]*hist{l.get, l.put, l.del}[w.op].record(opEnd.Sub(opStart))
	w.id++
	req := w.id
	if !w.tr.keep(req) {
		return
	}
	w.tr.add(req, "request", "", tg, t1)
	w.tr.add(req, "gen.inputs", "request", tg, t0)
	if w.sp.churn {
		w.tr.add(req, "lease.acquire", "request", t0, ta)
		w.tr.add(req, "lease.release", "request", tb, t1)
	}
	w.tr.add(req, name, "request", opStart, opEnd)
}

// stallReader is map_stall's third goroutine.
func stallReader(sp spec, seed uint64, end time.Time, w *mapWorker) {
	defer func() {
		if p := recover(); p != nil {
			w.panics++
			w.fail(workload.OpSearch, fmt.Sprint(p))
			w.firstStack(p)
		}
		if w.h != nil {
			w.h.Release()
		}
	}()
	if !w.acquire() {
		return
	}
	rng := workload.NewRNG(workerSeed(seed, workers))
	origin := time.Now()
	for {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		if ph := now.Sub(origin) % stallCycle; ph < stallFor {
			time.Sleep(stallFor - ph)
			continue
		}
		for range stallBurst {
			k := sp.key(rng)
			w.attempted++
			if got, ok := w.h.GetAppend(k, w.buf[:0]); ok {
				w.buf = got
				w.verify(workload.OpSearch, got, k)
			}
		}
		time.Sleep(stallGap)
	}
}

// snapshot is the counter state the per-layer ratios are deltas of.
type snapshot struct {
	st  qsense.Stats
	vs  qsense.ValueStats
	gcN uint32
	gcP uint64
}

func takeSnapshot(st qsense.Stats, vs qsense.ValueStats) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{st: st, vs: vs, gcN: ms.NumGC, gcP: ms.PauseTotalNs}
}

// takeAt calls take once t has passed, on its own goroutine; the returned
// function waits for the result.
func takeAt[T any](t time.Time, take func() T) func() T {
	ch := make(chan T, 1)
	go func() {
		time.Sleep(time.Until(t))
		ch <- take()
	}()
	return func() T { return <-ch }
}

// counterLayers fills the reclamation, lease, mem and runtime ledger
// entries from the counter deltas over the measured window of ops ops.
func counterLayers(layer map[string]float64, a, b snapshot, ops uint64) {
	per := func(d uint64) float64 { return float64(d) / float64(max(ops, 1)) }
	retired := b.st.Retired - a.st.Retired
	scans := b.st.Scans - a.st.Scans
	layer["reclaim.retired_per_op"] = per(retired)
	if retired > 0 {
		layer["reclaim.freed_per_retired"] = float64(b.st.Freed-a.st.Freed) / float64(retired)
	}
	layer["reclaim.scans_per_kop"] = 1000 * per(scans)
	if scans > 0 {
		layer["reclaim.scanned_records_per_scan"] = float64(b.st.ScannedRecords-a.st.ScannedRecords) / float64(scans)
	}
	layer["reclaim.rooster_passes"] = float64(b.st.RoosterPasses - a.st.RoosterPasses)
	layer["reclaim.switches_to_fallback"] = float64(b.st.SwitchesToFallback - a.st.SwitchesToFallback)
	layer["reclaim.switches_to_fast"] = float64(b.st.SwitchesToFast - a.st.SwitchesToFast)
	layer["lease.orphaned_nodes"] = float64(b.st.OrphanedNodes - a.st.OrphanedNodes)
	layer["lease.adopted_nodes"] = float64(b.st.AdoptedNodes - a.st.AdoptedNodes)
	layer["lease.arena_growths"] = float64(b.st.ArenaGrowths - a.st.ArenaGrowths)
	layer["mem.value_retires_per_op"] = per(b.vs.ValueRetires - a.vs.ValueRetires)
	layer["mem.struct_retires_per_op"] = per(b.vs.StructRetires - a.vs.StructRetires)
	layer["runtime.gc_cycles"] = float64(b.gcN - a.gcN)
	layer["runtime.gc_pause_ns"] = float64(b.gcP - a.gcP)
}

// opLayers fills the map-layer latency entries from merged histograms.
func opLayers(layer map[string]float64, l *layers) {
	layer["map.get_ns_p50"], layer["map.get_ns_p99"] = l.get.quantile(0.5), l.get.quantile(0.99)
	layer["map.put_ns_p50"], layer["map.put_ns_p99"] = l.put.quantile(0.5), l.put.quantile(0.99)
	layer["map.delete_ns_p50"], layer["map.delete_ns_p99"] = l.del.quantile(0.5), l.del.quantile(0.99)
}

func leaseLayers(layer map[string]float64, l *layers) {
	layer["lease.acquire_ns_p50"], layer["lease.acquire_ns_p99"] = l.acquire.quantile(0.5), l.acquire.quantile(0.99)
	layer["lease.release_ns_p50"], layer["lease.release_ns_p99"] = l.release.quantile(0.5), l.release.quantile(0.99)
}

func runMap(sp spec, seed uint64, seconds int, traced bool) outcome {
	o := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var m *qsense.SkipMap
	var base int64
	var times []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		mm, n, err := buildMap(sp, seed)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			o.breach("setup: %v", err)
			return o
		}
		if m != nil {
			m.Close()
		}
		m, base = mm, n
	}
	o.e2e["setup_s"] = median(times)

	start := time.Now()
	win := measured(start, seconds)
	ws := make([]*mapWorker, workers)
	live := make([]liveKeys, workers)
	for i := range ws {
		ws[i] = newMapWorker(sp, m, win, seed, i, &live[i], traced, start)
	}
	smp := startSampler(win, func() (int64, int64) {
		keys := base
		for i := range live {
			keys += live[i].n.Load()
		}
		return keys + m.Values().Spilled, m.Stats().Pending
	}, traced)
	snap := func() snapshot { return takeSnapshot(m.Stats(), m.Values()) }
	first := takeAt(win.start, snap)
	var wg sync.WaitGroup
	var reader *mapWorker
	if sp.stall {
		reader = &mapWorker{sp: sp, m: m}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stallReader(sp, seed, win.end(), reader)
		}()
	}
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
	last := snap()
	o.e2e["space_amp"] = smp.finish()
	a := first()

	recs := make([]*recorder, len(ws))
	for i, w := range ws {
		recs[i] = w.rec
	}
	var ops uint64
	o.e2e["ops_per_s"], o.e2e["p50_us"], o.e2e["p99_us"], ops = windowFigures(win, recs)
	ts := make([]*tally, 0, len(ws)+1)
	for _, w := range ws {
		ts = append(ts, &w.tally)
	}
	if reader != nil {
		ts = append(ts, &reader.tally)
	}
	l := o.collect(sp.schemeName(), ts)

	if traced {
		opLayers(o.layer, l)
		o.layer["gen.ns_per_op"] = l.gen.mean()
		counterLayers(o.layer, a, last, ops)
		o.layer["reclaim.pending_peak"] = float64(smp.pendingPeak)
		o.layer["reclaim.pending_mean"] = smp.pendingMean()
		o.layer["runtime.heap_inuse_peak_bytes"] = float64(smp.heapPeak)
		if !sp.churn && len(o.breaches) == 0 {
			o.safely("lease probe", func() { leaseProbe(m, sp, l) })
		}
		leaseLayers(o.layer, l)
	}
	o.safely("drain check", func() { checkDrained(&o, m, sp) })
	o.safely("close", m.Close)
	if traced && len(o.breaches) == 0 {
		o.safely("reclamation rerun", func() { o.layer["reclaim.overhead_ns_per_op"] = reclaimOverhead(sp, seed) })
	}
	return o
}

func newMapWorker(sp spec, m *qsense.SkipMap, win windows, seed uint64, id int, live *liveKeys, traced bool, base time.Time) *mapWorker {
	w := &mapWorker{sp: sp, m: m, win: win, rng: workload.NewRNG(workerSeed(seed, id)),
		mix: workload.Mix{UpdatePct: sp.updatePct}, live: live, rec: newRecorder(win.n),
		id: uint64(id) << 40}
	if traced {
		w.lay, w.tr = newLayers(), &tracer{base: base}
	}
	return w
}

// leaseProbe times Acquire and Release of a single goroutine (one GET per
// lease) on a workload whose load goroutines hold their leases: the lease
// layer's own cost, measured where it is predicted not to matter.
func leaseProbe(m *qsense.SkipMap, sp spec, l *layers) {
	rng := workload.NewRNG(0x1EA5E)
	var buf []byte
	for i := 0; i < leaseProbeOps; i++ {
		k := sp.key(rng)
		t0 := time.Now()
		h, err := m.Acquire()
		t1 := time.Now()
		if err != nil {
			return
		}
		buf, _ = h.GetAppend(k, buf[:0])
		t2 := time.Now()
		h.Release()
		t3 := time.Now()
		l.acquire.record(t1.Sub(t0))
		l.release.record(t3.Sub(t2))
	}
}

// checkDrained is the end-of-run gate: every lease granted was returned,
// and, with the load stopped, the retired-but-unreclaimed backlog reaches
// zero under a reader that passes quiescent states.
func checkDrained(o *outcome, m *qsense.SkipMap, sp spec) {
	st := m.Stats()
	if st.AcquiredHandles != st.ReleasedHandles {
		o.breach("leases: %d acquired, %d released", st.AcquiredHandles, st.ReleasedHandles)
	}
	h, err := m.Acquire()
	if err != nil {
		o.breach("drain acquire: %v", err)
		return
	}
	defer h.Release()
	var buf []byte
	deadline := time.Now().Add(3 * time.Second)
	for k := int64(0); m.Stats().Pending > 0; k++ {
		if time.Now().After(deadline) {
			o.breach("pending did not drain: %d nodes after 3s", m.Stats().Pending)
			return
		}
		for i := int64(0); i < 256; i++ {
			buf, _ = h.GetAppend((k*256+i)%sp.keys, buf[:0])
		}
	}
}

// reclaimOverhead reruns a fixed number of the workload's ops, from the
// same seed, on the workload's scheme and on none, and returns the
// difference in mean ns per op. The two runs see the same op sequence;
// none never frees, which is why the count is fixed.
func reclaimOverhead(sp spec, seed uint64) float64 {
	mean := func(s spec) float64 {
		m, _, err := buildMap(s, seed)
		if err != nil {
			return 0
		}
		defer m.Close()
		win := windows{start: time.Now(), width: time.Hour, n: 1}
		ws := make([]*mapWorker, workers)
		live := make([]liveKeys, workers)
		var wg sync.WaitGroup
		for i := range ws {
			ws[i] = newMapWorker(s, m, win, seed, i, &live[i], false, win.start)
			ws[i].limit = rerunOpsPerWorker
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws[i].run()
			}()
		}
		wg.Wait()
		h := newHist()
		for _, w := range ws {
			h.merge(w.rec.lat[0])
		}
		return h.mean()
	}
	none := sp
	none.scheme = qsense.SchemeNone
	return mean(sp) - mean(none)
}
