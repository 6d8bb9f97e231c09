package kvd

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"qsense/internal/harness"
	"qsense/internal/resp"
	"qsense/internal/workload"
)

// LoadConfig describes one macro-benchmark run against a kvd server.
type LoadConfig struct {
	// Target is the server address ("host:port").
	Target string
	// Conns is the client connection pool size; the PhasePlan decides how
	// many of them are live at any moment.
	Conns int
	// KeyRange and Theta shape the key distribution: bounded zipfian with
	// skew Theta over [0, KeyRange), uniform when Theta <= 0.
	KeyRange int64
	Theta    float64
	// UpdatePct is the write fraction (split evenly SET/DEL, rest GET).
	UpdatePct int
	// Plan drives connection churn: each phase keeps a Load-fraction of
	// Conns connected and the rest disconnected — a burst-then-idle plan
	// exercises the server's arena growth and parking.
	Plan workload.PhasePlan
	// ValueSize shapes SET payload sizes (workload.SizeDist): fixed at
	// Base bytes, or zipf-extended up to Max. The zero value means fixed
	// 8-byte values — just past the SkipMap's 7-byte inline cap, so the
	// spilled value-arena path is on by default. Every payload is
	// self-verifying (workload.AppendPayload); GET replies are checked and
	// corrupt ones counted in LoadResult.BadValues.
	ValueSize workload.SizeDist
	// Seed makes runs reproducible; 0 means 1.
	Seed uint64
	// NoPrefill skips the half-range prefill (for tests that assert exact
	// map contents).
	NoPrefill bool
	// StallConns opens this many extra connections that dial, then hold
	// the socket silently for the whole run — each one pins a leased map
	// handle server-side while sending nothing. This is the TCP face of
	// the fault matrix's stalled reader: against a server without
	// IdleTimeout the leases stay pinned for the run; with IdleTimeout
	// set the server is expected to evict them (visible as idle_timeouts
	// in the final STATS). Healthy workers keep running either way.
	StallConns int
}

// dialRetry dials target, retrying transient connect errors with capped
// exponential backoff plus jitter — a load generator racing a server's
// startup (or riding out a listen-queue overflow under a connection storm)
// should degrade into a short wait, not a failed run. Jitter decorrelates
// the pool's retries so a thundering herd doesn't re-arrive in lockstep.
func dialRetry(target string, attempts int, rng *workload.RNG) (net.Conn, error) {
	backoff := 2 * time.Millisecond
	const capBackoff = 250 * time.Millisecond
	var lastErr error
	for a := 0; a < attempts; a++ {
		c, err := net.Dial("tcp", target)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if a == attempts-1 {
			break
		}
		// Sleep in [backoff/2, 3*backoff/2): full jitter around the nominal.
		time.Sleep(backoff/2 + time.Duration(rng.Next()%uint64(backoff)))
		if backoff *= 2; backoff > capBackoff {
			backoff = capBackoff
		}
	}
	return nil, fmt.Errorf("kvd: dial %s: %w (after %d attempts)", target, lastErr, attempts)
}

// LoadResult is the outcome of RunLoad: closed-loop throughput, the merged
// per-op latency distribution, and the server's reclamation counters
// fetched over STATS after the last phase.
type LoadResult struct {
	Conns int
	Ops   uint64
	Errs  uint64
	// BadValues counts GET replies that failed payload verification — a
	// nonzero count means the server returned torn or freed value bytes.
	BadValues uint64
	Duration  time.Duration
	Mops      float64
	Latency   *harness.LatencyHist
	Stats     map[string]int64
}

// RunLoad drives the configured workload to completion. Each connection is
// closed-loop — one command in flight, per-op round-trip latency recorded
// into an HDR-style histogram — so the latency numbers are honest
// request-to-reply times, not queueing artifacts of an open-loop injector.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1 << 16
	}
	if cfg.Plan.Total() <= 0 {
		cfg.Plan = workload.Steady(time.Second)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ValueSize.Base <= 0 {
		cfg.ValueSize.Base = 8
	}
	if !cfg.NoPrefill {
		if err := Prefill(cfg.Target, cfg.KeyRange, cfg.Seed, cfg.ValueSize); err != nil {
			return LoadResult{}, fmt.Errorf("kvd prefill: %w", err)
		}
	}
	hists := make([]harness.LatencyHist, cfg.Conns)
	ops := make([]uint64, cfg.Conns)
	errs := make([]uint64, cfg.Conns)
	bad := make([]uint64, cfg.Conns)
	start := time.Now()
	// Stalled connections dial before the healthy pool so their leases are
	// pinned for the whole measured window.
	stallStop := make(chan struct{})
	var stallWg sync.WaitGroup
	for i := 0; i < cfg.StallConns; i++ {
		stallWg.Add(1)
		go func(i int) {
			defer stallWg.Done()
			rng := workload.NewRNG(cfg.Seed ^ (uint64(i)*0x9E3779B9 + 0x5111))
			c, err := dialRetry(cfg.Target, 8, rng)
			if err != nil {
				return
			}
			defer c.Close()
			// Hold silently: no commands, no reads. If the server's
			// IdleTimeout disconnects us, keep holding the closed socket —
			// a crashed client doesn't politely redial.
			<-stallStop
		}(i)
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops[i], errs[i], bad[i] = loadWorker(i, cfg, start, &hists[i])
		}(i)
	}
	wg.Wait()
	close(stallStop)
	stallWg.Wait()
	res := LoadResult{Conns: cfg.Conns, Duration: time.Since(start), Latency: &harness.LatencyHist{}}
	for i := range hists {
		res.Ops += ops[i]
		res.Errs += errs[i]
		res.BadValues += bad[i]
		res.Latency.Merge(&hists[i])
	}
	res.Mops = float64(res.Ops) / res.Duration.Seconds() / 1e6
	// Snapshot the server's counters after the last phase: this is where a
	// burst-then-idle plan shows parked slots and a decayed live count.
	if st, err := FetchStats(cfg.Target); err == nil {
		res.Stats = st
	}
	return res, nil
}

// loadWorker is one pooled connection's life: follow the phase plan
// (connect when this worker index is active, disconnect and sleep when
// not), and while connected run the zipf-keyed op mix closed-loop. SETs
// carry sized self-verifying payloads; GET replies are verified, with
// corruption counted in bad rather than errs (a torn value is a
// correctness event, not a transport one).
func loadWorker(i int, cfg LoadConfig, start time.Time, hist *harness.LatencyHist) (ops, errs, bad uint64) {
	rng := workload.NewRNG(cfg.Seed + uint64(i)*0x9E3779B9 + 7)
	mix := workload.Mix{UpdatePct: cfg.UpdatePct}
	var conn net.Conn
	var rd *resp.Reader
	var wr *resp.Writer
	var keyBuf, valBuf []byte
	setCmd := []byte("SET")
	drop := func() {
		if conn != nil {
			conn.Close()
			conn, rd, wr = nil, nil, nil
		}
	}
	defer drop()
	for {
		ph, remaining, running := cfg.Plan.At(time.Since(start))
		if !running {
			return ops, errs, bad
		}
		if i >= ph.ActiveWorkers(cfg.Conns) {
			drop()
			time.Sleep(remaining)
			continue
		}
		if conn == nil {
			c, err := dialRetry(cfg.Target, 4, rng)
			if err != nil {
				errs++
				continue
			}
			conn = c
			rd = resp.NewReader(c)
			wr = resp.NewWriter(c)
		}
		k := rng.ZipfKey(cfg.KeyRange, cfg.Theta)
		keyBuf = strconv.AppendInt(keyBuf[:0], k, 10)
		op := mix.Choose(rng.Next())
		t0 := time.Now()
		switch op {
		case workload.OpSearch:
			wr.CommandBytes([]byte("GET"), keyBuf)
		case workload.OpInsert:
			n := cfg.ValueSize.Sample(rng)
			valBuf = workload.AppendPayload(valBuf[:0], k, rng.Next(), n)
			wr.CommandBytes(setCmd, keyBuf, valBuf)
		case workload.OpDelete:
			wr.CommandBytes([]byte("DEL"), keyBuf)
		}
		if err := wr.Flush(); err != nil {
			errs++
			drop()
			continue
		}
		rp, err := rd.ReadReply()
		if err != nil {
			errs++
			drop()
			continue
		}
		if rp.IsError() {
			errs++
			continue
		}
		if op == workload.OpSearch && rp.Kind == '$' && rp.Bulk != nil &&
			!workload.VerifyPayload(rp.Bulk, k) {
			bad++
		}
		hist.Record(time.Since(t0))
		ops++
	}
}

// Prefill populates the server to the paper's half-full starting point:
// every even key in [0, keyRange) is SET (pipelined) with a sized
// self-verifying payload, so GETs under any skew hit about half the time —
// and verify — and DELs have victims from the start.
func Prefill(target string, keyRange int64, seed uint64, size workload.SizeDist) error {
	rng := workload.NewRNG(seed ^ 0xABCD)
	if size.Base <= 0 {
		size.Base = 8
	}
	c, err := dialRetry(target, 8, rng)
	if err != nil {
		return err
	}
	defer c.Close()
	rd := resp.NewReader(c)
	wr := resp.NewWriter(c)
	const batch = 128
	inFlight := 0
	drain := func() error {
		for ; inFlight > 0; inFlight-- {
			rp, err := rd.ReadReply()
			if err != nil {
				return err
			}
			if rp.IsError() {
				return fmt.Errorf("prefill rejected: %s", rp.Str)
			}
		}
		return nil
	}
	setCmd := []byte("SET")
	var keyBuf, valBuf []byte
	for k := int64(0); k < keyRange; k += 2 {
		keyBuf = strconv.AppendInt(keyBuf[:0], k, 10)
		valBuf = workload.AppendPayload(valBuf[:0], k, rng.Next(), size.Sample(rng))
		wr.CommandBytes(setCmd, keyBuf, valBuf)
		if inFlight++; inFlight == batch {
			if err := wr.Flush(); err != nil {
				return err
			}
			if err := drain(); err != nil {
				return err
			}
		}
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	return drain()
}

// FetchStats issues STATS on a fresh connection and parses the numeric
// counters.
func FetchStats(target string) (map[string]int64, error) {
	c, err := dialRetry(target, 8, workload.NewRNG(0x57A75))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rd := resp.NewReader(c)
	wr := resp.NewWriter(c)
	wr.Command("STATS")
	if err := wr.Flush(); err != nil {
		return nil, err
	}
	rp, err := rd.ReadReply()
	if err != nil {
		return nil, err
	}
	if rp.IsError() || rp.Kind != '$' || rp.Bulk == nil {
		return nil, fmt.Errorf("unexpected STATS reply kind %q", rp.Kind)
	}
	return ParseStats(rp.Bulk), nil
}
