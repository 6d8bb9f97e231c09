package kvd

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"qsense/internal/fence"
	"qsense/internal/resp"
	"qsense/internal/workload"
)

// startServer spins up a server on a loopback port and returns it with its
// address and a cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		s.Close()
	})
	return s, addr.String()
}

// client is a test-side RESP connection.
type client struct {
	c  net.Conn
	rd *resp.Reader
	wr *resp.Writer
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{c: c, rd: resp.NewReader(c), wr: resp.NewWriter(c)}
}

// do sends one command and reads one reply.
func (cl *client) do(t *testing.T, args ...string) resp.Reply {
	t.Helper()
	cl.wr.Command(args...)
	if err := cl.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	rp, err := cl.rd.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func TestServerCommands(t *testing.T) {
	for _, scheme := range []string{"qsense", "hp", "none"} {
		t.Run(scheme, func(t *testing.T) {
			s, addr := startServer(t, Config{Scheme: scheme})
			cl := dialClient(t, addr)
			if rp := cl.do(t, "PING"); rp.Str != "PONG" {
				t.Fatalf("PING: %+v", rp)
			}
			if rp := cl.do(t, "GET", "5"); rp.Kind != '$' || rp.Bulk != nil {
				t.Fatalf("GET missing: want null bulk, got %+v", rp)
			}
			if rp := cl.do(t, "SET", "5", "99"); rp.Str != "OK" {
				t.Fatalf("SET: %+v", rp)
			}
			if rp := cl.do(t, "GET", "5"); string(rp.Bulk) != "99" {
				t.Fatalf("GET: %+v", rp)
			}
			// Upsert updates in place.
			cl.do(t, "SET", "5", "100")
			if rp := cl.do(t, "GET", "5"); string(rp.Bulk) != "100" {
				t.Fatalf("GET after upsert: %+v", rp)
			}
			if rp := cl.do(t, "DEL", "5"); rp.Int != 1 {
				t.Fatalf("DEL present: %+v", rp)
			}
			if rp := cl.do(t, "DEL", "5"); rp.Int != 0 {
				t.Fatalf("DEL absent: %+v", rp)
			}
			// Malformed arguments draw -ERR but keep the connection.
			if rp := cl.do(t, "SET", "notakey", "1"); !rp.IsError() {
				t.Fatalf("bad key: %+v", rp)
			}
			// Values are arbitrary bytes now — "-3" stores, spilled (>7
			// byte) payloads round-trip.
			if rp := cl.do(t, "SET", "1", "-3"); rp.Str != "OK" {
				t.Fatalf("byte value: %+v", rp)
			}
			if rp := cl.do(t, "GET", "1"); string(rp.Bulk) != "-3" {
				t.Fatalf("byte value GET: %+v", rp)
			}
			if rp := cl.do(t, "SET", "1", "a spilled value payload"); rp.Str != "OK" {
				t.Fatalf("spilled SET: %+v", rp)
			}
			if rp := cl.do(t, "GET", "1"); string(rp.Bulk) != "a spilled value payload" {
				t.Fatalf("spilled GET: %+v", rp)
			}
			if rp := cl.do(t, "DEL", "1"); rp.Int != 1 {
				t.Fatalf("DEL spilled: %+v", rp)
			}
			if rp := cl.do(t, "GET", "1", "2"); !rp.IsError() {
				t.Fatalf("bad arity: %+v", rp)
			}
			if rp := cl.do(t, "NOPE"); !rp.IsError() {
				t.Fatalf("unknown command: %+v", rp)
			}
			// STATS names the scheme and the live connection.
			rp := cl.do(t, "STATS")
			if rp.Kind != '$' {
				t.Fatalf("STATS: %+v", rp)
			}
			st := ParseStats(rp.Bulk)
			if st["conns_live"] != 1 || st["acquired_handles"] < 1 {
				t.Fatalf("STATS counters: %v", st)
			}
			if st["value_retires"] < 1 {
				t.Fatalf("value_retires = %d after a spilled delete", st["value_retires"])
			}
			if st["value_bytes"] != 0 || st["value_spilled"] != 0 {
				t.Fatalf("value gauges not drained: %v", st)
			}
			// Which publication path the hazard pointers took: 1 only
			// for qsense, and only where fence registered plain stores.
			wantAsym := int64(0)
			if scheme == "qsense" && fence.Asymmetric() {
				wantAsym = 1
			}
			if got, ok := st["asymmetric_publication"]; !ok || got != wantAsym {
				t.Fatalf("asymmetric_publication = %d (present %v), want %d", got, ok, wantAsym)
			}
			// QUIT closes after the reply.
			if rp := cl.do(t, "QUIT"); rp.Str != "OK" {
				t.Fatalf("QUIT: %+v", rp)
			}
			if _, err := cl.rd.ReadReply(); err == nil {
				t.Fatal("connection still open after QUIT")
			}
			if live := s.LiveConns(); live != 0 {
				// The handler may still be unwinding; give it a moment.
				time.Sleep(50 * time.Millisecond)
				if live = s.LiveConns(); live != 0 {
					t.Fatalf("live connections after QUIT: %d", live)
				}
			}
		})
	}
}

// TestServerReservedKeys: the two extreme int64 values are the SkipMap's
// sentinel keys and must be rejected at the protocol layer — a DEL of
// math.MaxInt64 used to reach skiplist.Delete on the tail sentinel,
// corrupting the shared map for every connection.
func TestServerReservedKeys(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	for _, k := range []string{"9223372036854775807", "-9223372036854775808"} {
		if rp := cl.do(t, "SET", k, "1"); !rp.IsError() {
			t.Fatalf("SET %s accepted: %+v", k, rp)
		}
		if rp := cl.do(t, "GET", k); !rp.IsError() {
			t.Fatalf("GET %s accepted: %+v", k, rp)
		}
		if rp := cl.do(t, "DEL", k); !rp.IsError() {
			t.Fatalf("DEL %s accepted: %+v", k, rp)
		}
	}
	// The -ERRs kept the connection open and the map intact; the domain
	// boundaries themselves are ordinary keys.
	for _, k := range []string{"9223372036854775806", "-9223372036854775807"} {
		if rp := cl.do(t, "SET", k, "7"); rp.Str != "OK" {
			t.Fatalf("SET %s: %+v", k, rp)
		}
		if rp := cl.do(t, "GET", k); string(rp.Bulk) != "7" {
			t.Fatalf("GET %s: %+v", k, rp)
		}
		if rp := cl.do(t, "DEL", k); rp.Int != 1 {
			t.Fatalf("DEL %s: %+v", k, rp)
		}
	}
}

// TestServerConcurrentShutdown: every Shutdown caller must block until the
// drain completes — the CAS-losing callers used to return nil immediately,
// letting a Shutdown-then-Close sequence tear down the reclamation domain
// while handlers still held leased map handles.
func TestServerConcurrentShutdown(t *testing.T) {
	s, addr := startServer(t, Config{})
	for i := 0; i < 4; i++ {
		cl := dialClient(t, addr)
		if rp := cl.do(t, "PING"); rp.Str != "PONG" {
			t.Fatalf("conn %d: %+v", i, rp)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown %d: %v", i, err)
				return
			}
			// A nil return promises a completed drain: no live
			// connections, every lease back.
			if live := s.LiveConns(); live != 0 {
				t.Errorf("Shutdown %d returned with %d live conns", i, live)
			}
			if st := s.Stats(); st.AcquiredHandles != st.ReleasedHandles {
				t.Errorf("Shutdown %d returned with %d leases still held",
					i, st.AcquiredHandles-st.ReleasedHandles)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerPipelining(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	// Three commands in one segment; three replies come back in order.
	cl.wr.Command("SET", "1", "10")
	cl.wr.Command("SET", "2", "20")
	cl.wr.Command("GET", "2")
	if err := cl.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"OK", "OK", "20"} {
		rp, err := cl.rd.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got := rp.Str
		if rp.Kind == '$' {
			got = string(rp.Bulk)
		}
		if got != want {
			t.Fatalf("reply %d = %q want %q", i, got, want)
		}
	}
}

func TestServerProtocolErrorClosesConnection(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	if _, err := cl.c.Write([]byte("*1\r\n$-5\r\n")); err != nil {
		t.Fatal(err)
	}
	rp, err := cl.rd.ReadReply()
	if err != nil || !rp.IsError() {
		t.Fatalf("want -ERR reply, got %+v, %v", rp, err)
	}
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := cl.rd.ReadReply(); err == nil {
		t.Fatal("connection survived a framing violation")
	}
}

func TestServerHardMaxConnsQueues(t *testing.T) {
	_, addr := startServer(t, Config{HardMaxConns: 1})
	first := dialClient(t, addr)
	if rp := first.do(t, "PING"); rp.Str != "PONG" {
		t.Fatalf("first conn: %+v", rp)
	}
	// The second connection is accepted but its handle waits in
	// AcquireWait until the first releases.
	second := dialClient(t, addr)
	second.wr.Command("PING")
	if err := second.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	second.c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := second.rd.ReadReply(); err == nil {
		t.Fatal("second connection served while the cap was full")
	}
	first.do(t, "QUIT")
	second.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	rp, err := second.rd.ReadReply()
	if err != nil || rp.Str != "PONG" {
		t.Fatalf("second conn after release: %+v, %v", rp, err)
	}
}

// TestServerConnectionChurn is the -race integration test: a hundred-plus
// clients in concurrent waves against a deliberately tiny initial arena,
// then a full drain. Growth must engage during the storm, every lease must
// come back, the drained arena must park its trailing slots, and Close
// must leave nothing pending.
func TestServerConnectionChurn(t *testing.T) {
	s, addr := startServer(t, Config{Scheme: "qsense", InitialConns: 2})
	const waves, perWave = 3, 40
	for w := 0; w < waves; w++ {
		// Barrier: every client in the wave holds its connection (and thus
		// its leased handle) until all are connected, so the storm really
		// is perWave-concurrent rather than accidentally serialized.
		var connected, done sync.WaitGroup
		release := make(chan struct{})
		for c := 0; c < perWave; c++ {
			connected.Add(1)
			done.Add(1)
			go func(id int) {
				defer done.Done()
				arrived := false
				arrive := func() {
					if !arrived {
						arrived = true
						connected.Done()
					}
				}
				defer arrive()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				rd, wr := resp.NewReader(conn), resp.NewWriter(conn)
				key := fmt.Sprintf("%d", id%64)
				for i := 0; i < 20; i++ {
					wr.Command("SET", key, "1")
					wr.Command("GET", key)
					wr.Command("DEL", key)
				}
				if err := wr.Flush(); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 60; i++ {
					if _, err := rd.ReadReply(); err != nil {
						t.Errorf("client %d reply %d: %v", id, i, err)
						return
					}
				}
				arrive()
				<-release
				wr.Command("QUIT")
				if err := wr.Flush(); err != nil {
					t.Error(err)
					return
				}
				if rp, err := rd.ReadReply(); err != nil || rp.Str != "OK" {
					t.Errorf("client %d QUIT: %+v, %v", id, rp, err)
				}
			}(w*perWave + c)
		}
		connected.Wait()
		close(release)
		done.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	if st.AcquiredHandles != uint64(waves*perWave) {
		t.Errorf("acquired %d handles, want %d", st.AcquiredHandles, waves*perWave)
	}
	if st.AcquiredHandles != st.ReleasedHandles {
		t.Errorf("leases leaked: acquired %d released %d", st.AcquiredHandles, st.ReleasedHandles)
	}
	if st.ArenaGrowths == 0 {
		t.Errorf("arena never grew from %d slots under %d concurrent conns", 2, perWave)
	}
	if st.ParkedSlots == 0 {
		t.Errorf("no parked slots after full drain (arena %d, high water %d)", st.ArenaSize, st.HighWaterWorkers)
	}
	s.Close()
	if st := s.Stats(); st.Pending != 0 {
		t.Errorf("%d nodes pending after Close", st.Pending)
	}
}

func TestRunLoadSmoke(t *testing.T) {
	_, addr := startServer(t, Config{Scheme: "qsense", InitialConns: 2})
	res, err := RunLoad(LoadConfig{
		Target:    addr,
		Conns:     8,
		KeyRange:  1 << 10,
		Theta:     0.99,
		UpdatePct: 20,
		Plan:      workload.BurstIdle(150*time.Millisecond, 100*time.Millisecond, 2, 0.1),
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("load run performed no operations")
	}
	if res.Errs > res.Ops/100 {
		t.Fatalf("error rate too high: %d errs / %d ops", res.Errs, res.Ops)
	}
	if res.Latency.Count() != res.Ops {
		t.Fatalf("latency count %d != ops %d", res.Latency.Count(), res.Ops)
	}
	if p50 := res.Latency.Quantile(0.50); p50 <= 0 {
		t.Fatalf("p50 %v", p50)
	}
	if res.Stats == nil || res.Stats["acquired_handles"] == 0 {
		t.Fatalf("missing server stats: %v", res.Stats)
	}
}

// TestServerOversizedValue: a SET whose value exceeds the server's MaxBulk
// draws -ERR but keeps the connection and the map intact — the
// application-level cap is an error reply, not a protocol violation (only
// breaching the wire-level resp.MaxBulk closes the stream).
func TestServerOversizedValue(t *testing.T) {
	_, addr := startServer(t, Config{Scheme: "qsense", MaxBulk: 1024})
	cl := dialClient(t, addr)
	if rp := cl.do(t, "SET", "1", "keep-me"); rp.IsError() {
		t.Fatalf("SET: %s", rp.Str)
	}
	rp := cl.do(t, "SET", "1", strings.Repeat("v", 2048))
	if !rp.IsError() || !strings.Contains(rp.Str, "value too large") {
		t.Fatalf("oversized SET drew %q, want -ERR value too large", rp.Str)
	}
	// Same connection still serves, and the rejected SET left the key's
	// old value in place.
	if rp := cl.do(t, "GET", "1"); string(rp.Bulk) != "keep-me" {
		t.Fatalf("GET after rejected SET = %q, want keep-me", rp.Bulk)
	}
	if rp := cl.do(t, "SET", "2", "still-works"); rp.IsError() {
		t.Fatalf("follow-up SET: %s", rp.Str)
	}
	if rp := cl.do(t, "GET", "2"); string(rp.Bulk) != "still-works" {
		t.Fatalf("follow-up GET = %q", rp.Bulk)
	}
}

// tinySendListener wraps a TCP listener, shrinking each accepted
// connection's kernel send buffer so a client that stops reading
// back-pressures the server after a few KB instead of megabytes — the
// deterministic stage for TestServerWriteTimeout.
type tinySendListener struct{ net.Listener }

func (l tinySendListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, nil
}

// TestServerWriteTimeout: a client that pipelines GETs for a bulk value and
// never drains its replies must be disconnected by WriteTimeout. The bulk
// reply is larger than the reply writer's buffer, so the blocking write
// happens on the auto-flush INSIDE dispatch — the deadline must already be
// armed there, not only at the explicit pipeline-drain flush.
func TestServerWriteTimeout(t *testing.T) {
	s, err := New(Config{Scheme: "qsense", WriteTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = tinySendListener{ln}
	go s.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		s.Close()
	})
	addr := ln.Addr().String()

	// A healthy client stores a value big enough that a handful of GET
	// replies overflow the shrunken kernel buffers.
	setter := dialClient(t, addr)
	if rp := setter.do(t, "SET", "1", strings.Repeat("x", 32<<10)); rp.IsError() {
		t.Fatalf("SET: %s", rp.Str)
	}

	// The stalled client: tiny receive buffer, pipelined GETs, never reads.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.(*net.TCPConn).SetReadBuffer(4 << 10)
	wr := resp.NewWriter(raw)
	for i := 0; i < 64; i++ {
		wr.Command("GET", "1")
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.writeTimeouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write timeout never fired against a stalled client")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The handler unwinds: the stalled connection unregisters and its lease
	// goes back, leaving only the healthy client.
	for s.LiveConns() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection still registered (%d live)", s.LiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rp := setter.do(t, "PING"); rp.Str != "PONG" {
		t.Fatalf("healthy client broken after the stalled one was dropped: %q", rp.Str)
	}
}
