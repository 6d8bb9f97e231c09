package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"qsense"
	"qsense/internal/kvd"
	"qsense/internal/resp"
	"qsense/internal/workload"
)

const captureLimit = 200_000

var (
	cmdGET = []byte("GET")
	cmdSET = []byte("SET")
	cmdDEL = []byte("DEL")
)

// recOp is one request of a traced kvd run, kept so its map operations can
// be replayed in process. A connection keeps its first captureLimit
// requests' commands, replies and ops: enough for steady per-layer means,
// bounded in memory.
type recOp struct {
	op   workload.Op
	key  int64
	salt uint64
}

// teeConn copies what the client writes while on is set: the exact command
// stream the server parsed, for the RESP parse replay.
type teeConn struct {
	net.Conn
	on  bool
	buf bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	if c.on {
		c.buf.Write(p)
	}
	return c.Conn.Write(p)
}

// kvdWorker is one closed-loop client connection: it sends a request, waits
// for the reply, checks it, and only then sends the next.
type kvdWorker struct {
	sp   spec
	addr string
	win  windows
	rng  *workload.RNG
	mix  workload.Mix
	rec  *recorder
	id   uint64
	tally

	conn *teeConn
	rd   *resp.Reader
	wr   *resp.Writer

	replies []resp.Reply
	ops     []recOp
	cmds    bytes.Buffer
}

func (w *kvdWorker) drop() {
	if w.conn != nil {
		w.cmds.Write(w.conn.buf.Bytes())
		w.conn.Close()
		w.conn = nil
	}
}

func (w *kvdWorker) run() {
	defer w.drop()
	var keyBuf, val []byte
	for {
		if w.conn == nil {
			c, err := net.Dial("tcp", w.addr)
			if err != nil {
				w.attempted++
				w.fail(workload.OpSearch, "dial: "+err.Error())
				if !time.Now().Before(w.win.end()) {
					return
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			w.conn = &teeConn{Conn: c}
			w.rd, w.wr = resp.NewReader(w.conn), resp.NewWriter(w.conn)
		}
		var tg, tw, tf time.Time
		if w.lay != nil {
			tg = time.Now()
		}
		k := w.sp.key(w.rng)
		keyBuf = strconv.AppendInt(keyBuf[:0], k, 10)
		op := w.mix.Choose(w.rng.Next())
		var salt uint64
		t0 := time.Now()
		switch op {
		case workload.OpSearch:
			w.wr.CommandBytes(cmdGET, keyBuf)
		case workload.OpInsert:
			salt = w.rng.Next()
			val = workload.AppendPayload(val[:0], k, salt, valueSize)
			w.wr.CommandBytes(cmdSET, keyBuf, val)
		case workload.OpDelete:
			w.wr.CommandBytes(cmdDEL, keyBuf)
		}
		i0 := w.win.at(t0)
		capture := w.lay != nil && i0 >= 0 && i0 < w.win.n && len(w.ops) < captureLimit
		w.conn.on = capture
		if w.lay != nil {
			tw = time.Now()
		}
		err := w.wr.Flush()
		if w.lay != nil {
			tf = time.Now()
		}
		var rp resp.Reply
		if err == nil {
			rp, err = w.rd.ReadReply()
		}
		t1 := time.Now()
		w.attempted++
		if err != nil {
			w.fail(op, "transport: "+err.Error())
			w.drop()
			if !t1.Before(w.win.end()) {
				return
			}
			continue
		}
		w.check(op, k, rp)
		if capture {
			w.replies = append(w.replies, rp)
			w.ops = append(w.ops, recOp{op, k, salt})
		}
		i := w.win.at(t1)
		if i >= w.win.n {
			return
		}
		if i < 0 {
			continue
		}
		w.rec.lat[i].record(t1.Sub(t0))
		w.rec.ops[i]++
		if w.lay != nil {
			w.lay.gen.record(t0.Sub(tg))
			w.lay.write.record(tf.Sub(tw))
			w.lay.wait.record(t1.Sub(tf))
			w.id++
			if req := w.id; w.tr.keep(req) {
				w.tr.add(req, "request", "", tg, t1)
				w.tr.add(req, "gen.inputs", "request", tg, t0)
				w.tr.add(req, "kvd.client_write", "request", tw, tf)
				w.tr.add(req, "kvd.client_wait", "request", tf, t1)
			}
		}
	}
}

// check verifies one reply: GET answers a null or a value that passes
// payload verification for its key, SET answers +OK, DEL answers :0 or :1.
// An -ERR or -BUSY reply is a failed request.
func (w *kvdWorker) check(op workload.Op, k int64, rp resp.Reply) {
	if rp.IsError() {
		w.fail(op, "reply: -"+rp.Str)
		return
	}
	switch op {
	case workload.OpSearch:
		w.gets++
		switch {
		case rp.Kind != '$':
			w.fail(op, fmt.Sprintf("GET answered kind %q", rp.Kind))
		case rp.Bulk != nil:
			w.getHits++
			w.verify(op, rp.Bulk, k)
		}
	case workload.OpInsert:
		if rp.Kind != '+' || rp.Str != "OK" {
			w.fail(op, fmt.Sprintf("SET answered %q %q", rp.Kind, rp.Str))
		}
	case workload.OpDelete:
		w.deletes++
		switch {
		case rp.Kind != ':' || rp.Int < 0 || rp.Int > 1:
			w.fail(op, fmt.Sprintf("DEL answered %q %d", rp.Kind, rp.Int))
		case rp.Int == 1:
			w.deleteHits++
		}
	}
}

// startServer builds an in-process kvd server on a loopback port and
// prefills it.
func startServer(sp spec, seed uint64) (*kvd.Server, string, error) {
	srv, err := kvd.New(kvd.Config{Scheme: string(sp.scheme)})
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	if err := kvd.Prefill(addr.String(), sp.keys, seed, workload.SizeDist{Base: valueSize}); err != nil {
		stopServer(srv)
		return nil, "", err
	}
	return srv, addr.String(), nil
}

func stopServer(srv *kvd.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	srv.Close()
	return err
}

func runKVD(sp spec, seed uint64, seconds int, traced bool) outcome {
	o := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var srv *kvd.Server
	var addr string
	var times []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, a, err := startServer(sp, seed)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			o.breach("setup: %v", err)
			return o
		}
		if srv != nil {
			if err := stopServer(srv); err != nil {
				o.breach("shutdown after setup: %v", err)
			}
		}
		srv, addr = s, a
	}
	o.e2e["setup_s"] = median(times)

	start := time.Now()
	win := measured(start, seconds)
	// Every stored value is valueSize bytes, so it is spilled: the keys
	// present equal the spilled value nodes, and live nodes are twice that.
	smp := startSampler(win, func() (int64, int64) {
		return 2 * srv.Values().Spilled, srv.Stats().Pending
	}, traced)
	type wire struct {
		snap snapshot
		st   map[string]int64
		err  error
	}
	take := func() wire {
		st, err := kvd.FetchStats(addr)
		return wire{takeSnapshot(srv.Stats(), srv.Values()), st, err}
	}
	firstAt := takeAt(win.start, take)
	ws := make([]*kvdWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &kvdWorker{sp: sp, addr: addr, win: win, rng: workload.NewRNG(workerSeed(seed, i)),
			mix: workload.Mix{UpdatePct: sp.updatePct}, rec: newRecorder(win.n), id: uint64(i) << 40}
		if traced {
			ws[i].lay, ws[i].tr = newLayers(), &tracer{base: start}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[i].run()
		}()
	}
	wg.Wait()
	last := take()
	o.e2e["space_amp"] = smp.finish()
	first := firstAt()
	for _, x := range []wire{first, last} {
		if x.err != nil {
			o.breach("STATS: %v", x.err)
		}
	}
	panics := last.st["panics_recovered"] - first.st["panics_recovered"]
	if panics > 0 {
		// kvd answers a handler panic with -ERR and closes the connection;
		// the clients already counted those requests as failed.
		o.breach("server recovered %d handler panics", panics)
	}

	recs := make([]*recorder, len(ws))
	ts := make([]*tally, len(ws))
	for i, w := range ws {
		recs[i], ts[i] = w.rec, &w.tally
	}
	l := o.collect(sp.schemeName(), ts)
	var ops uint64
	o.e2e["ops_per_s"], o.e2e["p50_us"], o.e2e["p99_us"], ops = windowFigures(win, recs)

	if traced {
		o.layer["kvd.panics_recovered"] = float64(panics)
		o.layer["kvd.busy_rejected"] = float64(last.st["busy_rejected"] - first.st["busy_rejected"])
		o.layer["kvd.client_write_ns"] = l.write.mean()
		o.layer["kvd.client_wait_ns"] = l.wait.mean()
		o.layer["gen.ns_per_op"] = l.gen.mean()
		counterLayers(o.layer, first.snap, last.snap, ops)
		o.layer["reclaim.pending_peak"] = float64(smp.pendingPeak)
		o.layer["reclaim.pending_mean"] = smp.pendingMean()
		o.layer["runtime.heap_inuse_peak_bytes"] = float64(smp.heapPeak)
	}
	drainKVD(&o, srv, addr, sp)
	o.safely("shutdown", func() {
		if err := stopServer(srv); err != nil {
			o.breach("shutdown: %v", err)
		}
	})
	if st := srv.Stats(); st.AcquiredHandles != st.ReleasedHandles {
		o.breach("leases: %d acquired, %d released", st.AcquiredHandles, st.ReleasedHandles)
	}
	if traced && len(o.breaches) == 0 {
		o.safely("replay", func() { replayKVD(&o, sp, seed, ws) })
	}
	return o
}

// drainKVD is the end-of-run gate over the wire: with the load stopped, a
// client issuing GETs lets the server's reclamation finish, and the
// retired-but-unreclaimed backlog must reach zero.
func drainKVD(o *outcome, srv *kvd.Server, addr string, sp spec) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		o.breach("drain dial: %v", err)
		return
	}
	defer c.Close()
	rd, wr := resp.NewReader(c), resp.NewWriter(c)
	var keyBuf []byte
	deadline := time.Now().Add(3 * time.Second)
	for k := int64(0); srv.Stats().Pending > 0; k = (k + 1) % sp.keys {
		if time.Now().After(deadline) {
			o.breach("pending did not drain: %d nodes after 3s", srv.Stats().Pending)
			return
		}
		keyBuf = strconv.AppendInt(keyBuf[:0], k, 10)
		wr.CommandBytes(cmdGET, keyBuf)
		if err := wr.Flush(); err != nil {
			o.breach("drain: %v", err)
			return
		}
		if rp, err := rd.ReadReply(); err != nil || rp.IsError() {
			o.breach("drain GET: %v %q", err, rp.Str)
			return
		}
	}
}

// replayKVD splits a traced kvd run's round trip by layer. It replays the
// exact command stream the clients sent through resp.Reader.ReadCommand,
// the exact replies through the resp.Writer methods, and the requests'
// map operations, one connection per goroutine, on fresh in-process maps of
// the workload's scheme and of none. What the replays do not account for
// is the socket, the scheduler and the server's dispatch.
func replayKVD(o *outcome, sp spec, seed uint64, ws []*kvdWorker) {
	var cmds, replies uint64
	var parse, encode time.Duration
	for _, w := range ws {
		t0 := time.Now()
		rd := resp.NewReader(bytes.NewReader(w.cmds.Bytes()))
		for {
			if _, err := rd.ReadCommand(); err != nil {
				if !errors.Is(err, io.EOF) {
					o.breach("parse replay: %v", err)
				}
				break
			}
			cmds++
		}
		parse += time.Since(t0)
		t0 = time.Now()
		wr := resp.NewWriter(io.Discard)
		for _, rp := range w.replies {
			switch rp.Kind {
			case '+':
				wr.SimpleString(rp.Str)
			case '-':
				wr.Error(rp.Str)
			case ':':
				wr.Int(rp.Int)
			case '$':
				if rp.Bulk == nil {
					wr.Null()
				} else {
					wr.Bulk(rp.Bulk)
				}
			}
		}
		if err := wr.Flush(); err != nil {
			o.breach("encode replay: %v", err)
		}
		encode += time.Since(t0)
		replies += uint64(len(w.replies))
	}
	if cmds > 0 {
		o.layer["resp.parse_ns_per_cmd"] = float64(parse.Nanoseconds()) / float64(cmds)
	}
	if replies > 0 {
		o.layer["resp.encode_ns_per_reply"] = float64(encode.Nanoseconds()) / float64(replies)
	}

	l := newLayers()
	onScheme, err := replayMap(sp, seed, ws, l)
	if err != nil {
		o.breach("map replay: %v", err)
		return
	}
	none := sp
	none.scheme = qsense.SchemeNone
	onNone, err := replayMap(none, seed, ws, newLayers())
	if err != nil {
		o.breach("map replay on none: %v", err)
		return
	}
	opLayers(o.layer, l)
	o.layer["kvd.map_replay_ns_per_op"] = onScheme
	o.layer["reclaim.overhead_ns_per_op"] = onScheme - onNone
	o.layer["kvd.server_residual_ns"] = o.layer["kvd.client_wait_ns"] - o.layer["resp.parse_ns_per_cmd"] -
		o.layer["resp.encode_ns_per_reply"] - onScheme
	m, _, err := buildMap(sp, seed)
	if err != nil {
		o.breach("lease probe map: %v", err)
		return
	}
	leaseProbe(m, sp, l)
	m.Close()
	leaseLayers(o.layer, l)
}

// replayMap runs each connection's recorded map operations on its own
// goroutine against a fresh prefilled map and returns the mean ns per op.
func replayMap(sp spec, seed uint64, ws []*kvdWorker, l *layers) (float64, error) {
	m, _, err := buildMap(sp, seed)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	ls := make([]*layers, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		ls[i] = newLayers()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = replayOps(m, w.ops, ls[i])
		}()
	}
	wg.Wait()
	all := newHist()
	for i := range ls {
		if errs[i] != nil {
			return 0, errs[i]
		}
		l.merge(ls[i])
		all.merge(ls[i].get)
		all.merge(ls[i].put)
		all.merge(ls[i].del)
	}
	return all.mean(), nil
}

func replayOps(m *qsense.SkipMap, ops []recOp, l *layers) error {
	h, err := m.Acquire()
	if err != nil {
		return err
	}
	defer h.Release()
	var val, buf []byte
	for _, r := range ops {
		if r.op == workload.OpInsert {
			val = workload.AppendPayload(val[:0], r.key, r.salt, valueSize)
		}
		t0 := time.Now()
		switch r.op {
		case workload.OpSearch:
			got, ok := h.GetAppend(r.key, buf[:0])
			l.get.record(time.Since(t0))
			if ok {
				buf = got
				if !workload.VerifyPayload(got, r.key) {
					return fmt.Errorf("GET %d returned a value that failed payload verification", r.key)
				}
			}
		case workload.OpInsert:
			h.Put(r.key, val)
			l.put.record(time.Since(t0))
		case workload.OpDelete:
			h.Delete(r.key)
			l.del.record(time.Since(t0))
		}
	}
	return nil
}
