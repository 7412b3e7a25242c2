package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spmspv"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the call. Spans of one operation share Op; Parent
// is the span that caused this one (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Band   int    `json:"band,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; they are analysed
// and written out after measuring stops.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   atomic.Int64

	// cur is the operation and handler span the server is serving now.
	// Shard calls carry no request identity through the coordinator,
	// so the timing shard backend attributes its spans to cur; that is
	// exact only with one request in flight, as on the workload that
	// has shards (serve-bfs-program, one caller).
	cur atomic.Pointer[[2]int64]
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// nextOp returns a fresh operation id.
func (r *recorder) nextOp() int64 { return r.ops.Add(1) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op int64, parent, band int) int {
	t := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Band: band, Start: t})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries (operation id, parent span id) through a context to
// the tagging transport.
type spanKey struct{}

func withSpan(ctx context.Context, op int64, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, [2]int64{op, int64(id)})
}

// opHeader carries "op/parent" from the client's transport to the
// server's handler wrapper.
const opHeader = "X-Stackbench-Op"

// taggingTransport is the client-side RoundTripper: it records the
// HTTP round trip (until the response body is closed) as a span and
// tags the request with its operation id.
type taggingTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *taggingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	v, ok := req.Context().Value(spanKey{}).([2]int64)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := t.rec.begin("http.roundtrip", v[0], int(v[1]), 0)
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, fmt.Sprintf("%d/%d", v[0], id))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.rec.end(id) }}
	return resp, nil
}

// spanBody ends its span once, when the client closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler wraps Server.ServeHTTP in an "http.handler" span.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, parent := int64(0), -1
	if v := r.Header.Get(opHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		op, _ = strconv.ParseInt(a, 10, 64)
		if p, err := strconv.Atoi(b); err == nil {
			parent = p
		}
	}
	id := t.rec.begin("http.handler", op, parent, 0)
	t.rec.cur.Store(&[2]int64{op, int64(id)})
	t.h.ServeHTTP(w, r)
	t.rec.end(id)
}

// timedBackend is a ShardBackend that records every shard call as a
// "shard.call" span. It forwards the context and health methods, so
// the coordinator drives it through its normal per-attempt-timeout and
// probe paths.
type timedBackend struct {
	st   *spmspv.Store
	band int
	rec  *recorder
}

func (b *timedBackend) spanStart() int {
	op, parent := int64(0), -1
	if v := b.rec.cur.Load(); v != nil {
		op, parent = v[0], int(v[1])
	}
	return b.rec.begin("shard.call", op, parent, b.band)
}

func (b *timedBackend) Do(req *spmspv.Request) (*spmspv.Response, error) {
	return b.DoContext(context.Background(), req)
}

func (b *timedBackend) DoContext(ctx context.Context, req *spmspv.Request) (*spmspv.Response, error) {
	id := b.spanStart()
	defer b.rec.end(id)
	return b.st.DoContext(ctx, req)
}

// Run and RunContext complete the Executor and context surfaces; the
// coordinator runs programs itself and sends bands only multiplies.
func (b *timedBackend) Run(p *spmspv.Program) (*spmspv.ProgramResponse, error) { return b.st.Run(p) }

func (b *timedBackend) RunContext(ctx context.Context, p *spmspv.Program) (*spmspv.ProgramResponse, error) {
	return b.st.RunContext(ctx, p)
}

func (b *timedBackend) Health(ctx context.Context) (*spmspv.HealthStatus, error) {
	return b.st.Health(ctx)
}

func (b *timedBackend) PutMatrix(name string, a *spmspv.Matrix) (*spmspv.StoreStat, error) {
	return b.st.PutMatrix(name, a)
}

func (b *timedBackend) DeleteMatrix(name string) error { return b.st.DeleteMatrix(name) }

func (b *timedBackend) Matrix(name string) (*spmspv.StoreStat, error) { return b.st.Matrix(name) }

// byName groups spans by name.
func byName(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// meanDur returns the mean duration of spans in nanoseconds.
func meanDur(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var t int64
	for _, s := range spans {
		t += s.dur()
	}
	return float64(t) / float64(len(spans))
}

// selfTime is s's duration minus the part of its interval that the
// children's intervals cover.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	reach = s.Start
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return s.dur() - covered
}

// serveLayers derives the server-side per-layer metrics from the spans
// of ops client operations: handler time, transport time (client
// latency minus handler time), and, when shard calls were recorded,
// the coordinator's self time, shard call counts and band skew.
func serveLayers(l map[string]float64, spans []span, ops int) {
	g := byName(spans)
	handlers := g["http.handler"]
	l["http.handler_us"] = meanDur(handlers) / 1e3

	handlerOf := map[int64]span{}
	for _, h := range handlers {
		handlerOf[h.Op] = h
	}
	var transport float64
	var matched int
	for _, c := range g["client.op"] {
		if h, ok := handlerOf[c.Op]; ok {
			transport += float64(c.dur() - h.dur())
			matched++
		}
	}
	if matched > 0 {
		l["transport_us"] = transport / float64(matched) / 1e3
	}

	calls := g["shard.call"]
	if len(calls) == 0 || ops == 0 {
		return
	}
	l["shard.calls_per_op"] = float64(len(calls)) / float64(ops)
	l["shard.call_us"] = meanDur(calls) / 1e3
	children := map[int][]span{}
	for _, c := range calls {
		children[c.Parent] = append(children[c.Parent], c)
	}
	var self float64
	var skew float64
	var rounds int
	for _, h := range handlers {
		kids := children[h.ID]
		self += float64(selfTime(h, kids))
		// The k-th call to each band within one handler span is scatter
		// round k (every round reaches every band: both bands of the
		// mesh are nonempty and no call is retried).
		perBand := map[int][]int64{}
		for _, c := range kids {
			perBand[c.Band] = append(perBand[c.Band], c.dur())
		}
		nr := -1
		for _, d := range perBand {
			if nr < 0 || len(d) < nr {
				nr = len(d)
			}
		}
		for k := 0; k < nr; k++ {
			var slow, sum float64
			for _, d := range perBand {
				x := float64(d[k])
				sum += x
				slow = max(slow, x)
			}
			if sum > 0 {
				skew += slow / (sum / float64(len(perBand)))
				rounds++
			}
		}
	}
	if len(handlers) > 0 {
		l["coordinator.self_ms"] = self / float64(len(handlers)) / 1e6
	}
	if rounds > 0 {
		l["shard.band_skew"] = skew / float64(rounds)
	}
}
