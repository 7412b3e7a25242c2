package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"spmspv"
	"spmspv/internal/engine"
)

// httpFront is an http.Server for a spmspv.Server on a loopback
// listener, plus the closed-loop callers' clients, one each.
type httpFront struct {
	hs      *http.Server
	done    chan struct{}
	clients []*spmspv.Client
	trs     []*http.Transport
}

// startFront serves h on 127.0.0.1 and builds callers clients on the
// binary wire. Traced fronts wrap h in an "http.handler" span and the
// clients' transports in the op-tagging RoundTripper.
func startFront(h http.Handler, callers int, rec *recorder) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	if rec != nil {
		h = &tracedHandler{h: h, rec: rec}
	}
	f := &httpFront{hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	url := "http://" + ln.Addr().String()
	for c := 0; c < callers; c++ {
		// The library's default transport settings, without the
		// environment's proxy: the server is on loopback.
		tr := &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second}
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = &taggingTransport{base: tr, rec: rec}
		}
		f.trs = append(f.trs, tr)
		f.clients = append(f.clients, spmspv.NewClient(url, spmspv.WithHTTPClient(&http.Client{Transport: rt})))
	}
	return f, nil
}

// close stops the server, waits for it, and drops idle connections.
func (f *httpFront) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	<-f.done
	for _, tr := range f.trs {
		tr.CloseIdleConnections()
	}
}

// wireLayers times the client's binary codec on captured messages: the
// encoder of each request and the decoder of each response, the median
// of five runs per message, and their encoded sizes.
func wireLayers(l map[string]float64, enc []func(*bytes.Buffer) error, dec [][]byte, decode func([]byte) error) error {
	const reps = 5
	var buf bytes.Buffer
	var encUS, reqBytes float64
	for _, e := range enc {
		ts := make([]float64, reps)
		for i := range ts {
			buf.Reset()
			t := time.Now()
			if err := e(&buf); err != nil {
				return err
			}
			ts[i] = float64(time.Since(t)) / 1e3
		}
		encUS += median(ts)
		reqBytes += float64(buf.Len())
	}
	var decUS, respBytes float64
	for _, b := range dec {
		ts := make([]float64, reps)
		for i := range ts {
			t := time.Now()
			if err := decode(b); err != nil {
				return err
			}
			ts[i] = float64(time.Since(t)) / 1e3
		}
		decUS += median(ts)
		respBytes += float64(len(b))
	}
	if n := float64(len(enc)); n > 0 {
		l["client.encode_us"] = encUS / n
		l["wire.req_bytes"] = reqBytes / n
	}
	if n := float64(len(dec)); n > 0 {
		l["client.decode_us"] = decUS / n
		l["wire.resp_bytes"] = respBytes / n
	}
	return nil
}

// serveDelta is a reading of a matrix's serving counters.
type serveDelta struct {
	requests, coalesced, batches int64
	latencyNS                    float64 // summed
}

func serveCounters(stat spmspv.StoreStat) serveDelta {
	s := stat.Serve
	return serveDelta{requests: s.Requests, coalesced: s.Coalesced, batches: s.Batches,
		latencyNS: float64(s.AvgLatencyNS) * float64(s.Requests)}
}

// storeLayers fills store.serve_us and the coalescing metrics from the
// serving-counter change between a and b.
func storeLayers(l map[string]float64, a, b serveDelta) {
	req := b.requests - a.requests
	if req <= 0 {
		return
	}
	l["store.serve_us"] = (b.latencyNS - a.latencyNS) / float64(req) / 1e3
	l["coalesce.fill"] = float64(b.coalesced-a.coalesced) / float64(req)
	if nb := b.batches - a.batches; nb > 0 {
		l["coalesce.batch_mean"] = float64(b.coalesced-a.coalesced) / float64(nb)
	}
}

const matrixName = "g"

// multStack is serve-mult's system: a Server over a Store behind
// loopback TCP, with one binary-wire Client per caller.
type multStack struct {
	a     *spmspv.Matrix
	reqs  []multRequest
	rec   *recorder
	cfg   config
	store *spmspv.Store
	front *httpFront
	chk   []*multChecker

	s0    serveDelta
	c0    spmspv.Counters
	plans int64
	// captured holds one served response per distinct request, for
	// timing the decoder on real messages.
	captured []atomic.Pointer[spmspv.Response]
}

func (s *multStack) request(c, k int) int {
	return (c*len(s.reqs)/len(s.chk) + k) % len(s.reqs)
}

// setup uploads the matrix over the wire and answers the first request,
// which builds the server-side multiplier.
func (s *multStack) setup() (any, error) {
	if _, err := s.front.clients[0].PutMatrix(matrixName, s.a); err != nil {
		return nil, err
	}
	return s.front.clients[0].Do(s.reqs[s.request(0, 0)].req)
}

func (s *multStack) op(ctx context.Context, c, k int) (any, error) {
	return s.front.clients[c].DoContext(ctx, s.reqs[s.request(c, k)].req)
}

func (s *multStack) check(c, k int, out any) (int64, error) {
	q := s.request(c, k)
	resp := out.(*spmspv.Response)
	if err := s.chk[c].check(resp.Y, s.reqs[q].want); err != nil {
		return 0, fmt.Errorf("request %d: %w", q, err)
	}
	if s.rec != nil {
		s.captured[q].CompareAndSwap(nil, resp)
	}
	return s.reqs[q].flops, nil
}

func (s *multStack) key(c, k int) int { return s.request(c, k) }

func (s *multStack) verify() error { return nil }

func (s *multStack) stat() (spmspv.StoreStat, spmspv.Counters, error) {
	stat, err := s.store.Stats(matrixName)
	if err != nil {
		return stat, spmspv.Counters{}, err
	}
	m, err := s.store.Load(matrixName)
	if err != nil {
		return stat, spmspv.Counters{}, err
	}
	return stat, m.Counters(), nil
}

func (s *multStack) mark() {
	stat, c, _ := s.stat() // a failing read fails again in layers, which reports it
	s.s0, s.c0 = serveCounters(stat), c
	s.plans = engine.PlanCompilations()
}

func (s *multStack) layers(l map[string]float64, spans []span, lp loopStats) error {
	ops := len(lp.lat)
	stat, c, err := s.stat()
	if err != nil {
		return err
	}
	s1 := serveCounters(stat)
	storeLayers(l, s.s0, s1)
	l["kernel.mults_per_op"] = float64(s1.requests-s.s0.requests) / float64(ops)
	counterLayers(l, counterDelta(s.c0, c), ops)
	l["engine.plan_compilations_per_op"] = float64(engine.PlanCompilations()-s.plans) / float64(ops)
	serveLayers(l, spans, ops)

	var enc []func(*bytes.Buffer) error
	var dec [][]byte
	for q := range s.reqs {
		req := s.reqs[q].req
		enc = append(enc, func(b *bytes.Buffer) error { return spmspv.EncodeRequestBinary(b, req) })
		if resp := s.captured[q].Load(); resp != nil {
			var b bytes.Buffer
			if err := spmspv.EncodeResponseBinary(&b, resp); err != nil {
				return err
			}
			dec = append(dec, b.Bytes())
		}
	}
	err = wireLayers(l, enc, dec, func(b []byte) error {
		_, err := spmspv.DecodeResponseBinary(bytes.NewReader(b))
		return err
	})
	if err != nil {
		return err
	}

	calls := make([]kernelCall, len(s.reqs))
	for q := range s.reqs {
		calls[q] = kernelCall{a: s.a, x: s.reqs[q].req.X, sr: spmspv.Arithmetic}
	}
	replayKernel(l, calls, s.rec)

	mDef, err := spmspv.NewMultiplier(s.a)
	if err != nil {
		return err
	}
	m1, err := spmspv.NewMultiplier(s.a, spmspv.WithThreads(1))
	if err != nil {
		return err
	}
	y := spmspv.NewVector(s.a.NumRows, 0)
	const perRound = 16 // requests per timed round: one request is only tens of µs
	l["par.speedup"] = speedup(s.cfg.size.speedupOps*perRound, func(k int, one bool) {
		m := mDef
		if one {
			m = m1
		}
		m.MultiplyInto(s.reqs[k%len(s.reqs)].req.X, y, spmspv.Arithmetic)
	})
	return nil
}

func (s *multStack) close() { s.front.close() }

func serveMultWorkload(name, why string) *workload {
	const callers = 2
	return &workload{
		name: name, why: why, callers: callers, opSpan: "client.op",
		inputs: func(cfg config) (func(*recorder) (stack, error), []matrixSize, error) {
			a := spmspv.RMAT(spmspv.DefaultRMAT(cfg.size.serveScale), cfg.seed)
			reqs := newMultRequests(a, matrixName, cfg.seed, cfg.size.requests, 16)
			open := func(rec *recorder) (stack, error) {
				s := &multStack{a: a, reqs: reqs, rec: rec, cfg: cfg, store: spmspv.NewStore(),
					captured: make([]atomic.Pointer[spmspv.Response], len(reqs))}
				for c := 0; c < callers; c++ {
					s.chk = append(s.chk, newMultChecker(a.NumRows))
				}
				var err error
				if s.front, err = startFront(spmspv.NewServer(s.store), callers, rec); err != nil {
					return nil, err
				}
				return s, nil
			}
			return open, []matrixSize{sizeOf(name, a)}, nil
		},
	}
}

const programName = "bfs"

// programStack is serve-bfs-program's system: a Server over a
// ShardedStore of two local row bands behind loopback TCP, with a
// stored BFSProgram invoked by one caller. Traced stacks put each band
// behind a timing ShardBackend.
type programStack struct {
	in    *bfsInputs
	rec   *recorder
	cfg   config
	bands []*spmspv.Store
	ss    *spmspv.ShardedStore
	front *httpFront

	s0      serveDelta
	c0      spmspv.Counters
	plans   int64
	shard0  [2]int64 // retries, failovers
	levels  atomic.Int64
	invokes []*spmspv.InvokeRequest
	resps   [][]byte
}

func (s *programStack) n() spmspv.Index { return s.in.a.NumCols }

func (s *programStack) invoke(ctx context.Context, k int) (*spmspv.ProgramResponse, error) {
	return s.front.clients[0].InvokeContext(ctx, programName, s.invokes[k%len(s.invokes)])
}

// setup uploads the matrix (sliced into bands by the coordinator) and
// the program over the wire, and answers the first invoke, which
// builds the bands' multipliers.
func (s *programStack) setup() (any, error) {
	c := s.front.clients[0]
	if _, err := c.PutMatrix(matrixName, s.in.a); err != nil {
		return nil, err
	}
	if _, err := c.PutProgram(programName, spmspv.BFSProgram(matrixName, int(s.n()), nil)); err != nil {
		return nil, err
	}
	return s.invoke(context.Background(), 0)
}

func (s *programStack) op(ctx context.Context, _, k int) (any, error) {
	return s.invoke(ctx, k)
}

func (s *programStack) check(_, k int, out any) (int64, error) {
	i := k % len(s.in.sources)
	resp := out.(*spmspv.ProgramResponse)
	res, err := spmspv.DecodeBFSProgramResponse(resp, s.n(), s.in.sources[i], int(s.n()))
	if err != nil {
		return 0, err
	}
	var levels int64
	for _, r := range resp.Results {
		if r.Iter > 0 && r.BodyOp == 0 {
			levels++
		}
	}
	s.levels.Add(levels)
	if s.rec != nil && len(s.resps) < len(s.in.sources) && k == len(s.resps) {
		var b bytes.Buffer
		if err := spmspv.EncodeProgramResponseBinary(&b, resp); err != nil {
			return 0, err
		}
		s.resps = append(s.resps, b.Bytes())
	}
	return s.in.edges[i], s.in.check(i, res.Levels, res.Parents)
}

func (s *programStack) key(_, k int) int { return k % len(s.in.sources) }

func (s *programStack) verify() error { return s.in.verify() }

func (s *programStack) counters() (serveDelta, spmspv.Counters, [2]int64, error) {
	stat, err := s.ss.Stats(matrixName)
	if err != nil {
		return serveDelta{}, spmspv.Counters{}, [2]int64{}, err
	}
	var c spmspv.Counters
	for _, b := range s.bands {
		m, err := b.Load(matrixName)
		if err != nil {
			return serveDelta{}, c, [2]int64{}, err
		}
		bc := m.Counters()
		c.Merge(&bc)
	}
	var sh [2]int64
	for _, st := range s.ss.ShardStats() {
		sh[0] += st.Serve.Retries
		sh[1] += st.Serve.Failovers
	}
	return serveCounters(stat), c, sh, nil
}

func (s *programStack) mark() {
	s.s0, s.c0, s.shard0, _ = s.counters() // a failing read fails again in layers, which reports it
	s.plans = engine.PlanCompilations()
	s.levels.Store(0)
	s.resps = nil
}

func (s *programStack) layers(l map[string]float64, spans []span, lp loopStats) error {
	ops := len(lp.lat)
	s1, c, sh, err := s.counters()
	if err != nil {
		return err
	}
	storeLayers(l, s.s0, s1)
	l["kernel.mults_per_op"] = float64(s1.requests-s.s0.requests) / float64(ops)
	counterLayers(l, counterDelta(s.c0, c), ops)
	l["engine.plan_compilations_per_op"] = float64(engine.PlanCompilations()-s.plans) / float64(ops)
	l["program.levels_per_op"] = float64(s.levels.Load()) / float64(ops)
	l["shard.retries"] = float64(sh[0] - s.shard0[0])
	l["shard.failovers"] = float64(sh[1] - s.shard0[1])
	serveLayers(l, spans, ops)

	var enc []func(*bytes.Buffer) error
	for _, inv := range s.invokes {
		enc = append(enc, func(b *bytes.Buffer) error { return spmspv.EncodeInvokeRequestBinary(b, inv) })
	}
	err = wireLayers(l, enc, s.resps, func(b []byte) error {
		_, err := spmspv.DecodeProgramResponseBinary(bytes.NewReader(b))
		return err
	})
	if err != nil {
		return err
	}

	// Replay the bands' masked level multiplies: each level's frontier
	// against each band's rows, with the band's slice of the visited
	// set as the complemented mask.
	bounds := spmspv.PieceBounds(s.n(), len(s.bands))
	var pieces []*spmspv.Matrix
	for w := range s.bands {
		pieces = append(pieces, spmspv.RowSlice(s.in.a, bounds[w], bounds[w+1]))
	}
	var calls []kernelCall
	for i := 0; i < min(s.cfg.size.replayOps, len(s.in.sources)); i++ {
		visited := spmspv.NewBitVector(s.n())
		for _, x := range levelFrontiers(serialBFS(s.in.a, s.in.sources[i])) {
			visited.SetFrom(x)
			for w, p := range pieces {
				calls = append(calls, kernelCall{a: p, x: x, sr: spmspv.MinSelect2nd,
					mask: visited.Slice(bounds[w], bounds[w+1])})
			}
		}
	}
	replayKernel(l, calls, s.rec)

	mDef, err := spmspv.NewMultiplier(s.in.a)
	if err != nil {
		return err
	}
	m1, err := spmspv.NewMultiplier(s.in.a, spmspv.WithThreads(1))
	if err != nil {
		return err
	}
	l["par.speedup"] = speedup(s.cfg.size.speedupOps, func(k int, one bool) {
		m := mDef
		if one {
			m = m1
		}
		spmspv.BFSMasked(m, s.in.sources[k%len(s.in.sources)])
	})
	return nil
}

func (s *programStack) close() {
	s.front.close()
	s.ss.Close()
}

func serveProgramWorkload(name, why string) *workload {
	return &workload{
		name: name, why: why, callers: 1, opSpan: "client.op",
		inputs: func(cfg config) (func(*recorder) (stack, error), []matrixSize, error) {
			side := cfg.size.progSide
			a := spmspv.Grid2D(side, side)
			in := newBFSInputs(a, cfg.seed, cfg.size.progSources, gridStrata(side, cfg.size.progSources))
			var invokes []*spmspv.InvokeRequest
			for _, src := range in.sources {
				x := spmspv.NewVector(a.NumCols, 1)
				x.Append(src, float64(src))
				invokes = append(invokes, &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": x}})
			}
			open := func(rec *recorder) (stack, error) {
				s := &programStack{in: in, rec: rec, cfg: cfg, invokes: invokes}
				var backends []spmspv.ShardBackend
				for w := 0; w < 2; w++ {
					st := spmspv.NewStore()
					s.bands = append(s.bands, st)
					if rec != nil {
						backends = append(backends, &timedBackend{st: st, band: w, rec: rec})
					} else {
						backends = append(backends, st)
					}
				}
				ss, err := spmspv.NewShardedStore(backends)
				if err != nil {
					return nil, err
				}
				s.ss = ss
				if s.front, err = startFront(spmspv.NewServer(ss), 1, rec); err != nil {
					ss.Close()
					return nil, err
				}
				return s, nil
			}
			return open, []matrixSize{sizeOf(name, a)}, nil
		},
	}
}
