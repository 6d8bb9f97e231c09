package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req; the
// request's own span has no Parent, and each layer call made for it names
// the request span as its parent. Times are nanoseconds since the run
// started.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Keep the spans of one request in spanEvery, up to spanLimit spans per
// goroutine: enough to rebuild any request's layer breakdown, few enough to
// hold in memory and write out at the end.
const (
	spanEvery = 64
	spanLimit = 200_000
)

// tracer collects one goroutine's spans in memory.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) keep(req uint64) bool { return req%spanEvery == 0 && len(t.spans) < spanLimit }

func (t *tracer) add(req uint64, name, parent string, a, b time.Time) {
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: int64(a.Sub(t.base)), End: int64(b.Sub(t.base))})
}

// layers holds a traced goroutine's per-layer latency histograms: time
// spent generating inputs, in each map operation, in lease Acquire and
// Release, and (kvd) in the client's Flush and ReadReply.
type layers struct {
	gen, get, put, del, acquire, release, write, wait *hist
}

func newLayers() *layers {
	return &layers{gen: newHist(), get: newHist(), put: newHist(), del: newHist(),
		acquire: newHist(), release: newHist(), write: newHist(), wait: newHist()}
}

func (l *layers) merge(o *layers) {
	l.gen.merge(o.gen)
	l.get.merge(o.get)
	l.put.merge(o.put)
	l.del.merge(o.del)
	l.acquire.merge(o.acquire)
	l.release.merge(o.release)
	l.write.merge(o.write)
	l.wait.merge(o.wait)
}

// writeTrace writes the run's metadata and every kept span as JSON lines.
func writeTrace(path string, meta map[string]any, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		f.Close()
		return err
	}
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
