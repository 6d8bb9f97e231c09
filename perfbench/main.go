// Command perfbench is the repository's end-to-end benchmark: one named
// workload per run, its end-to-end metrics (or, with -trace 1, its
// per-layer ledger), and a correctness gate over every output. See
// README.md for the workloads, the metrics and why each was chosen.
//
//	go build -o perfbench . && ./perfbench -workload map_qsense_upsert -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A correctness breach still prints
// it, then exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"qsense"
	"qsense/internal/fence"
	"qsense/internal/workload"
)

// spec is one workload: which front end carries the load, the map's
// scheme, the key distribution and the operation mix.
type spec struct {
	kvd       bool          // in-process kvd server over loopback, not direct map calls
	scheme    qsense.Scheme // "" means the default Options (qsense)
	keys      int64
	theta     float64 // zipf skew; 0 is uniform
	updatePct int     // split evenly between Put (SET) and Delete (DEL)
	noDelete  bool    // every update is a Put: no key leaves, so no list node is retired
	churn     bool    // Acquire -> one op -> Release per request
	stall     bool    // a third goroutine holds a lease and stalls
}

// BENCHMARK.json checks kvd_zipf and map_qsense_upsert. The other five
// delete keys concurrently, which reproduces a use-after-free in the skip
// list (see README.md); they are run by name.
var workloads = map[string]spec{
	"kvd_zipf":          {kvd: true, scheme: qsense.SchemeQSense, keys: 1 << 16, theta: 0.99, updatePct: 20},
	"map_hp_update":     {scheme: qsense.SchemeHP, keys: 1 << 16, updatePct: 50},
	"map_qsense_update": {scheme: qsense.SchemeQSense, keys: 1 << 16, updatePct: 50},
	"map_qsbr_update":   {scheme: qsense.SchemeQSBR, keys: 1 << 16, updatePct: 50},
	"map_qsense_upsert": {scheme: qsense.SchemeQSense, keys: 1 << 12, updatePct: 50, noDelete: true},
	"map_stall":         {scheme: qsense.SchemeQSense, keys: 1 << 12, theta: 0.99, updatePct: 50, stall: true},
	"map_churn":         {keys: 1 << 16, theta: 0.99, updatePct: 20, churn: true},
}

const (
	valueSize = 64 // bytes: above the 7-byte inline limit, so values spill to value nodes
	workers   = 2  // busy load goroutines (or connections), one per CPU of the 2-CPU machine the workloads were sized for
	warmup    = 500 * time.Millisecond
	setups    = 5 // setup_s is the median of this many constructions
)

func (s spec) schemeName() string {
	if s.scheme == "" {
		return string(qsense.SchemeQSense)
	}
	return string(s.scheme)
}

// outcome is what one measured pass of a workload produced.
type outcome struct {
	attempted, failed uint64
	breaches          []string // correctness breaches; any one fails the run
	failures          []string // failed operations by scheme and op
	e2e               map[string]float64
	layer             map[string]float64
	tracers           []*tracer
}

func (o *outcome) breach(format string, args ...any) {
	o.breaches = append(o.breaches, fmt.Sprintf(format, args...))
}

// safely runs one of the steps after the load: a structure the load left
// corrupt may panic in it, and that is a breach to report, not a crash
// that would lose the result.
func (o *outcome) safely(step string, fn func()) {
	defer func() {
		if p := recover(); p != nil {
			o.breach("%s panicked: %v", step, p)
		}
	}()
	fn()
}

// tally is what one load goroutine counts: requests attempted and failed
// (by op), values that failed verification, operations that panicked, and
// hit rates; when traced, also its layer histograms and spans.
type tally struct {
	attempted, failed   uint64
	failByOp            [3]uint64
	firstFailure        string
	badValues, panics   uint64
	gets, getHits       uint64
	deletes, deleteHits uint64
	lay                 *layers // nil unless traced
	tr                  *tracer // nil unless traced
}

var opNames = [3]string{workload.OpSearch: "get", workload.OpInsert: "put", workload.OpDelete: "delete"}

func (t *tally) fail(op workload.Op, why string) {
	t.failed++
	t.failByOp[op]++
	if t.firstFailure == "" {
		t.firstFailure = why
	}
}

// firstStack writes the stack of the goroutine's first panicking
// operation to standard error, for whoever hunts the defect behind it; it
// must be called from the deferred recover, where the panicking frames are
// still on the stack.
func (t *tally) firstStack(p any) {
	if t.panics == 1 {
		fmt.Fprintf(os.Stderr, "first panic: %v\n%s", p, debug.Stack())
	}
}

// verify checks a GET's value against its key.
func (t *tally) verify(op workload.Op, got []byte, k int64) {
	if !workload.VerifyPayload(got, k) {
		t.badValues++
		t.fail(op, fmt.Sprintf("GET %d returned a value that failed payload verification", k))
	}
}

// collect adds the load goroutines' tallies to the outcome and returns
// their merged layer histograms.
func (o *outcome) collect(scheme string, ts []*tally) *layers {
	l := newLayers()
	var gets, getHits, deletes, deleteHits uint64
	for _, t := range ts {
		o.attempted += t.attempted
		o.failed += t.failed
		for op, n := range t.failByOp {
			if n > 0 {
				o.failures = append(o.failures, fmt.Sprintf("scheme=%s op=%s failed=%d first=%q", scheme, opNames[op], n, t.firstFailure))
			}
			o.layer["fail."+opNames[op]] += float64(n)
		}
		if t.badValues > 0 {
			o.breach("%d GETs returned a value that failed payload verification", t.badValues)
		}
		if t.panics > 0 {
			o.breach("%d operations panicked, the first with: %s", t.panics, t.firstFailure)
		}
		gets, getHits, deletes, deleteHits = gets+t.gets, getHits+t.getHits, deletes+t.deletes, deleteHits+t.deleteHits
		if t.lay != nil {
			l.merge(t.lay)
			o.tracers = append(o.tracers, t.tr)
		}
	}
	if gets > 0 {
		o.layer["map.get_hit_frac"] = float64(getHits) / float64(gets)
	}
	if deletes > 0 {
		o.layer["map.delete_hit_frac"] = float64(deleteHits) / float64(deletes)
	}
	return l
}

type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"p50_us", "us"}, {"p99_us", "us"}, {"space_amp", "ratio"},
}

var perLayer = []metric{
	{"fail_frac", "ratio"},
	{"fail.get", "count"}, {"fail.put", "count"}, {"fail.delete", "count"},
	{"kvd.client_write_ns", "ns"}, {"kvd.client_wait_ns", "ns"}, {"kvd.server_residual_ns", "ns"},
	{"kvd.map_replay_ns_per_op", "ns"}, {"kvd.panics_recovered", "count"}, {"kvd.busy_rejected", "count"},
	{"resp.parse_ns_per_cmd", "ns"}, {"resp.encode_ns_per_reply", "ns"},
	{"lease.acquire_ns_p50", "ns"}, {"lease.acquire_ns_p99", "ns"},
	{"lease.release_ns_p50", "ns"}, {"lease.release_ns_p99", "ns"},
	{"lease.orphaned_nodes", "count"}, {"lease.adopted_nodes", "count"}, {"lease.arena_growths", "count"},
	{"map.get_ns_p50", "ns"}, {"map.get_ns_p99", "ns"}, {"map.put_ns_p50", "ns"}, {"map.put_ns_p99", "ns"},
	{"map.delete_ns_p50", "ns"}, {"map.delete_ns_p99", "ns"},
	{"map.get_hit_frac", "ratio"}, {"map.delete_hit_frac", "ratio"},
	{"reclaim.overhead_ns_per_op", "ns"}, {"reclaim.retired_per_op", "ratio"},
	{"reclaim.freed_per_retired", "ratio"}, {"reclaim.scans_per_kop", "ratio"},
	{"reclaim.scanned_records_per_scan", "ratio"}, {"reclaim.rooster_passes", "count"},
	{"reclaim.switches_to_fallback", "count"}, {"reclaim.switches_to_fast", "count"},
	{"reclaim.pending_peak", "count"}, {"reclaim.pending_mean", "count"},
	{"mem.value_retires_per_op", "ratio"}, {"mem.struct_retires_per_op", "ratio"},
	{"runtime.heap_inuse_peak_bytes", "bytes"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ns", "ns"},
	{"gen.ns_per_op", "ns"},
	{"trace.untraced_ops_per_s", "1/s"}, {"trace.traced_ops_per_s", "1/s"}, {"trace.overhead_frac", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	rev := flag.String("rev", "unknown", "revision of the code under test, for the run metadata")
	traceOut := flag.String("trace-out", "", "file for the traced run's spans (JSON lines); empty writes none")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload {%s} -seed N -seconds S -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	meta := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace, "rev": *rev,
		"scheme": sp.schemeName(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "client_server_same_process": sp.kvd, "load_goroutines": workers,
		// The hp scheme spins for this long on every Protect to stand in for
		// the fence a hardware implementation would pay; it is a model, not a
		// measured cost, and it is inside every hp timing below.
		"modeled_fence_ns_per_hp_protect": fence.DefaultCost.Nanoseconds(),
		"fence_spin_ns_per_iteration":     fence.NsPerIteration(),
	}
	printJSONLine("meta", meta)

	var res outcome
	metrics := map[string]float64{}
	var wanted []metric
	if *trace == 0 {
		res = run(sp, *seed, *seconds, false)
		metrics = res.e2e
		wanted = endToEnd
	} else {
		plain := run(sp, *seed, (*seconds+1)/2, false)
		res = run(sp, *seed, max(*seconds/2, 1), true)
		metrics = res.layer
		metrics["trace.untraced_ops_per_s"] = plain.e2e["ops_per_s"]
		metrics["trace.traced_ops_per_s"] = res.e2e["ops_per_s"]
		metrics["trace.overhead_frac"] = 1 - res.e2e["ops_per_s"]/plain.e2e["ops_per_s"]
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.breaches = append(plain.breaches, res.breaches...)
		res.failures = append(plain.failures, res.failures...)
		if *traceOut != "" {
			if err := writeTrace(*traceOut, meta, res.tracers); err != nil {
				res.breach("trace not written: %v", err)
			}
		}
		wanted = perLayer
	}
	if res.attempted > 0 {
		metrics["fail_frac"] = float64(res.failed) / float64(res.attempted)
	}
	for _, f := range res.failures {
		fmt.Println("failure:", f)
	}
	for _, b := range res.breaches {
		fmt.Println("breach:", b)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range wanted {
		v := metrics[m.name]
		fmt.Printf("%-34s %16.4f %s\n", m.name, v, m.unit)
		out[m.name] = value{v, m.unit}
	}
	correct := len(res.breaches) == 0
	printJSONLine("", map[string]any{
		"correct": correct, "attempted": max(res.attempted, 1), "failed": res.failed, "metrics": out,
	})
	if !correct {
		os.Exit(1)
	}
}

// run builds the workload, measures it for seconds after a warm-up, and
// checks its outputs.
func run(sp spec, seed uint64, seconds int, traced bool) outcome {
	if sp.kvd {
		return runKVD(sp, seed, seconds, traced)
	}
	return runMap(sp, seed, seconds, traced)
}

func printJSONLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers, strings and bools reach here
	}
	if label != "" {
		fmt.Printf("%s %s\n", label, b)
		return
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, "|")
}
