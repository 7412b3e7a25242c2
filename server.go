package spmspv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"spmspv/internal/perf"
	"spmspv/internal/sparse"
)

// Server is the HTTP transport over a Store — the spmspv-serve
// surface. It mounts:
//
//	POST   /v1/matrices/{name}   upload a matrix (Matrix Market, JSON
//	                             or binary wire form, sniffed)
//	GET    /v1/matrices          list matrices with serving counters
//	GET    /v1/matrices/{name}   one matrix's entry
//	DELETE /v1/matrices/{name}   unregister
//	POST   /v1/mult              execute one Request
//	POST   /v1/program           execute one Program
//
// Concurrent single-vector mult requests against the same matrix (and
// a compatible descriptor) are coalesced into one MultBatch of at most
// BatchSize requests. No request waits on a clock: a request arriving
// at an idle matrix runs at once (taking along any handler already
// runnable), and requests arriving while a flush runs ride the next
// one — so under load the bucket engine's one Estimate/sizing pass
// (and workspace checkout) is amortized across the batch exactly as in
// the multi-source algorithms, invisible to each caller, and a lone
// request pays nothing for it. Requests whose descriptor cannot ride a
// batch (accumulate, per-slot masks, bitmap responses) execute
// directly.
type Server struct {
	store    ServingStore
	mux      *http.ServeMux
	maxBatch int
	maxBody  int64
	wire     string   // response form when the client expresses no preference
	batchers sync.Map // batchKey → *multBatcher
	start    time.Time
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithBatchSize caps how many requests one MultBatch flush carries
// (default 8). Values ≤ 1 disable coalescing.
func WithBatchSize(n int) ServerOption {
	return func(s *Server) { s.maxBatch = n }
}

// WithMaxBodyBytes caps request body sizes (default 1 GiB — matrix
// uploads are the big ones).
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) { s.maxBody = n }
}

// WithDefaultWire sets the response wire form used when a client
// expresses no preference — no Accept header, or "*/*". Must be
// ContentTypeJSON (the default, so unversioned clients keep working)
// or ContentTypeBinary. A client's explicit Accept always overrides
// this.
func WithDefaultWire(contentType string) ServerOption {
	return func(s *Server) {
		if contentType == ContentTypeBinary {
			s.wire = ContentTypeBinary
		} else {
			s.wire = ContentTypeJSON
		}
	}
}

// ServingStore is the storage/execution backend a Server fronts: the
// single-process *Store or the sharded *ShardedStore coordinator. The
// unexported methods — the pre-validation shapes the coalescing path
// needs and the batch-flush execution hook — keep implementations
// inside this package; everything HTTP-visible rides the exported
// surface.
type ServingStore interface {
	Executor
	Put(name string, a *Matrix) error
	Delete(name string) bool
	Stats(name string) (StoreStat, error)
	StatsAll() []StoreStat

	// The stored-procedure registry surface (see programs.go): both
	// backends embed the same programRegistry, differing only in the
	// mult hook invocations execute under.
	PutProgram(name string, p *Program) (*ProgramStat, error)
	GetProgram(name string) (*Program, error)
	DeleteProgram(name string) bool
	Programs() []ProgramStat
	Invoke(name string, inv *InvokeRequest) (*ProgramResponse, error)

	resolveMult(name string) (nrows, ncols Index, stats *perf.ServeStats, err error)
	multBatch(name string, xs []*Vector, masks []*BitVector, d Desc) ([]*Vector, error)
	health() HealthStatus
}

// NewServer returns the HTTP handler serving st — a *Store for one
// box, a *ShardedStore to coordinate a fleet.
func NewServer(st ServingStore, opts ...ServerOption) *Server {
	s := &Server{
		store:    st,
		maxBatch: 8,
		maxBody:  1 << 30,
		wire:     ContentTypeJSON,
		start:    time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/matrices/{name}", s.handlePutMatrix)
	s.mux.HandleFunc("GET /v1/matrices", s.handleListMatrices)
	s.mux.HandleFunc("GET /v1/matrices/{name}", s.handleGetMatrix)
	s.mux.HandleFunc("DELETE /v1/matrices/{name}", s.handleDeleteMatrix)
	s.mux.HandleFunc("POST /v1/mult", s.handleMult)
	s.mux.HandleFunc("POST /v1/program", s.handleProgram)
	s.mux.HandleFunc("PUT /v1/programs/{name}", s.handlePutProgram)
	s.mux.HandleFunc("GET /v1/programs", s.handleListPrograms)
	s.mux.HandleFunc("GET /v1/programs/{name}", s.handleGetProgram)
	s.mux.HandleFunc("DELETE /v1/programs/{name}", s.handleDeleteProgram)
	s.mux.HandleFunc("POST /v1/programs/{name}/invoke", s.handleInvoke)
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	return s
}

// handleHealth serves the liveness probe: registry sizes, engine
// identity and uptime, in the negotiated wire form (JSON or the SPHL
// binary frame). It must stay cheap — the membership layer polls it at
// the probe interval against every worker.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeError(w, wireErrorf(CodeNotAcceptable,
			"no supported type in Accept %q (offer %s or %s)",
			r.Header.Get("Accept"), ContentTypeJSON, ContentTypeBinary))
		return
	}
	h := s.store.health()
	h.Status = "ok"
	h.UptimeNS = time.Since(s.start).Nanoseconds()
	if wire == ContentTypeBinary {
		w.Header().Set("Content-Type", ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		EncodeHealthBinary(w, &h)
		return
	}
	writeJSON(w, http.StatusOK, &h)
}

// handleShards reports the coordinator's per-shard counters; a
// single-process server answers invalid_request.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.store.(interface{ ShardStats() []ShardStat })
	if !ok {
		writeError(w, wireErrorf(CodeInvalidRequest, "server is not a shard coordinator"))
		return
	}
	writeJSON(w, http.StatusOK, ss.ShardStats())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusOf maps wire error codes to HTTP statuses.
func statusOf(we *WireError) int {
	switch we.Code {
	case CodeUnknownMatrix, CodeUnknownProgram:
		return http.StatusNotFound
	case CodeBadRequest, CodeInvalidRequest:
		return http.StatusBadRequest
	case CodeNotAcceptable:
		return http.StatusNotAcceptable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the error envelope of the matrix-management endpoints
// (mult and program responses carry the error inline instead).
type errorBody struct {
	Err *WireError `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	we := AsWireError(err)
	writeJSON(w, statusOf(we), errorBody{Err: we})
}

func (s *Server) handlePutMatrix(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Reject a bad name before paying for the body: uploads run to a
	// GiB, name validation is microseconds.
	if err := validStoreName(name); err != nil {
		writeError(w, wireErrorf(CodeInvalidRequest, "%v", err))
		return
	}
	a, err := sparse.DecodeMatrix(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeError(w, wireErrorf(CodeBadRequest, "decoding matrix: %v", err))
		return
	}
	if err := s.store.Put(name, a); err != nil {
		writeError(w, wireErrorf(CodeInvalidRequest, "%v", err))
		return
	}
	stat, err := s.store.Stats(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, stat)
}

func (s *Server) handleListMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.StatsAll())
}

func (s *Server) handleGetMatrix(w http.ResponseWriter, r *http.Request) {
	stat, err := s.store.Stats(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stat)
}

func (s *Server) handleDeleteMatrix(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.Delete(name) {
		writeError(w, wireErrorf(CodeUnknownMatrix, "matrix %q is not registered", name))
		return
	}
	// Evict the matrix's batchers so churn (upload → serve → delete)
	// does not accumulate idle batcher entries forever. A batcher
	// holding in-flight requests still flushes — its leader keeps it
	// alive — and simply reports the matrix unknown.
	s.batchers.Range(func(key, _ any) bool {
		if key.(batchKey).matrix == name {
			s.batchers.Delete(key)
		}
		return true
	})
	w.WriteHeader(http.StatusNoContent)
}

// acceptedWire negotiates the response wire form from the Accept
// header: the first supported type in listed order wins, "*/*" (and
// "application/*") selects the server default, an absent header
// selects the default, and a header naming no producible type at all
// fails negotiation (406). An element with an explicit q=0 weight is
// "not acceptable" per RFC 9110 — it is excluded rather than offered,
// including from what a wildcard may select.
func (s *Server) acceptedWire(r *http.Request) (string, bool) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return s.wire, true
	}
	wildcard := false
	var jsonRefused, binRefused bool
	for _, part := range strings.Split(accept, ",") {
		mt, qZero := acceptElem(part)
		switch mt {
		case ContentTypeJSON:
			if qZero {
				jsonRefused = true
				continue
			}
			return ContentTypeJSON, true
		case ContentTypeBinary:
			if qZero {
				binRefused = true
				continue
			}
			return ContentTypeBinary, true
		case "*/*", "application/*":
			if !qZero {
				wildcard = true
			}
		}
	}
	if wildcard {
		if s.wire == ContentTypeBinary && !binRefused {
			return ContentTypeBinary, true
		}
		if !jsonRefused {
			return ContentTypeJSON, true
		}
		if !binRefused {
			return ContentTypeBinary, true
		}
	}
	return "", false
}

// acceptElem splits one Accept element into its media type and whether
// it carries an explicit q=0 weight (in any of its RFC forms: q=0,
// q=0., q=0.000). A malformed q parameter is ignored, leaving the
// element acceptable.
func acceptElem(part string) (mt string, qZero bool) {
	params := strings.Split(part, ";")
	mt = strings.ToLower(strings.TrimSpace(params[0]))
	for _, p := range params[1:] {
		p = strings.TrimSpace(p)
		if len(p) < 2 || (p[0] != 'q' && p[0] != 'Q') || p[1] != '=' {
			continue
		}
		if q, err := strconv.ParseFloat(strings.TrimSpace(p[2:]), 64); err == nil && q == 0 {
			qZero = true
		}
	}
	return mt, qZero
}

// mediaType extracts the lowercase media type from one Accept /
// Content-Type element, dropping parameters (";q=0.9", "; charset=…").
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// reqReaderPool recycles the buffered readers the mult/program
// handlers sniff and decode request bodies through.
var reqReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}

func getReqReader(r io.Reader) *bufio.Reader {
	br := reqReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReqReader(br *bufio.Reader) {
	br.Reset(nil)
	reqReaderPool.Put(br)
}

// writeWire streams v to the client in the negotiated wire form. The
// binary encoders write through a pooled buffered writer straight onto
// the response — no intermediate per-response []byte — and the JSON
// encoder streams likewise.
func writeWire(w http.ResponseWriter, status int, wire string, v any) {
	if wire != ContentTypeBinary {
		writeJSON(w, status, v)
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(status)
	switch t := v.(type) {
	case *Response:
		EncodeResponseBinary(w, t)
	case *ProgramResponse:
		EncodeProgramResponseBinary(w, t)
	case *Program:
		EncodeProgramBinary(w, t)
	default:
		// Only the two message types above negotiate binary; falling
		// here is a programming error, not a client one.
		json.NewEncoder(w).Encode(v)
	}
}

func (s *Server) handleMult(w http.ResponseWriter, r *http.Request) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeMultError(w, ContentTypeJSON, wireErrorf(CodeNotAcceptable,
			"no supported type in Accept %q (offer %s or %s)",
			r.Header.Get("Accept"), ContentTypeJSON, ContentTypeBinary))
		return
	}
	br := getReqReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	req, err := decodeWireRequest(br)
	putReqReader(br)
	if err != nil {
		writeMultError(w, wire, wireErrorf(CodeBadRequest, "%v", err))
		return
	}
	resp, err := s.do(req)
	if err != nil {
		writeMultError(w, wire, err)
		return
	}
	writeWire(w, http.StatusOK, wire, resp)
}

// decodeWireRequest sniffs the body's encoding — the SPRQ envelope
// magic or JSON — and decodes accordingly, so the endpoint accepts
// both forms without a flag, exactly like the matrix upload endpoint.
func decodeWireRequest(br *bufio.Reader) (*Request, error) {
	head, _ := br.Peek(4)
	if string(head) == requestMagic {
		return DecodeRequestBinary(br)
	}
	var req Request
	if err := json.NewDecoder(br).Decode(&req); err != nil {
		return nil, fmt.Errorf("spmspv: decoding request: %w", err)
	}
	return &req, nil
}

// writeMultError writes a mult failure as a Response carrying the
// structured wire error, in the negotiated wire form.
func writeMultError(w http.ResponseWriter, wire string, err error) {
	we := AsWireError(err)
	writeWire(w, statusOf(we), wire, &Response{Err: we})
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeProgramError(w, ContentTypeJSON, wireErrorf(CodeNotAcceptable,
			"no supported type in Accept %q (offer %s or %s)",
			r.Header.Get("Accept"), ContentTypeJSON, ContentTypeBinary))
		return
	}
	br := getReqReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	p, err := decodeWireProgram(br)
	putReqReader(br)
	if err != nil {
		writeProgramError(w, wire, wireErrorf(CodeBadRequest, "%v", err))
		return
	}
	resp, err := s.store.Run(p)
	if err != nil {
		writeProgramError(w, wire, err)
		return
	}
	writeWire(w, http.StatusOK, wire, resp)
}

// decodeWireProgram sniffs the SPPG envelope magic vs JSON.
func decodeWireProgram(br *bufio.Reader) (*Program, error) {
	head, _ := br.Peek(4)
	if string(head) == programMagic {
		return DecodeProgramBinary(br)
	}
	var p Program
	if err := json.NewDecoder(br).Decode(&p); err != nil {
		return nil, fmt.Errorf("spmspv: decoding program: %w", err)
	}
	return &p, nil
}

func writeProgramError(w http.ResponseWriter, wire string, err error) {
	we := AsWireError(err)
	writeWire(w, statusOf(we), wire, &ProgramResponse{Err: we})
}

// handlePutProgram registers a stored procedure: the body (SPPG or
// JSON, sniffed) is validated AND compiled here, once, so warm invoke
// traffic runs zero program compilations. 201 answers with the
// program's registry stat.
func (s *Server) handlePutProgram(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validRegistryName("program", name); err != nil {
		writeError(w, wireErrorf(CodeInvalidRequest, "%v", err))
		return
	}
	br := getReqReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	p, err := decodeWireProgram(br)
	putReqReader(br)
	if err != nil {
		writeError(w, wireErrorf(CodeBadRequest, "%v", err))
		return
	}
	stat, err := s.store.PutProgram(name, p)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, stat)
}

func (s *Server) handleListPrograms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Programs())
}

// handleGetProgram serves a stored procedure's source form back, in
// the negotiated wire encoding (SPPG or JSON).
func (s *Server) handleGetProgram(w http.ResponseWriter, r *http.Request) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeError(w, wireErrorf(CodeNotAcceptable,
			"no supported type in Accept %q (offer %s or %s)",
			r.Header.Get("Accept"), ContentTypeJSON, ContentTypeBinary))
		return
	}
	p, err := s.store.GetProgram(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeWire(w, http.StatusOK, wire, p)
}

func (s *Server) handleDeleteProgram(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.DeleteProgram(name) {
		writeError(w, wireErrorf(CodeUnknownProgram, "program %q is not registered", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleInvoke runs a stored procedure with the request's bindings —
// the warm path the registry exists for: no program on the wire, no
// validation or compilation server-side, just seed vectors in and
// emitted results out, in the negotiated wire form.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	wire, ok := s.acceptedWire(r)
	if !ok {
		writeProgramError(w, ContentTypeJSON, wireErrorf(CodeNotAcceptable,
			"no supported type in Accept %q (offer %s or %s)",
			r.Header.Get("Accept"), ContentTypeJSON, ContentTypeBinary))
		return
	}
	br := getReqReader(http.MaxBytesReader(w, r.Body, s.maxBody))
	inv, err := decodeWireInvoke(br)
	putReqReader(br)
	if err != nil {
		writeProgramError(w, wire, wireErrorf(CodeBadRequest, "%v", err))
		return
	}
	resp, err := s.store.Invoke(r.PathValue("name"), inv)
	if err != nil {
		writeProgramError(w, wire, err)
		return
	}
	writeWire(w, http.StatusOK, wire, resp)
}

// decodeWireInvoke sniffs the SPIV envelope magic vs JSON; an empty
// body is a legitimate invoke with no bindings (a program of literal
// inputs).
func decodeWireInvoke(br *bufio.Reader) (*InvokeRequest, error) {
	head, _ := br.Peek(4)
	if len(head) == 0 {
		return &InvokeRequest{}, nil
	}
	if string(head) == invokeMagic {
		return DecodeInvokeRequestBinary(br)
	}
	var inv InvokeRequest
	if err := json.NewDecoder(br).Decode(&inv); err != nil {
		return nil, fmt.Errorf("spmspv: decoding invoke request: %w", err)
	}
	return &inv, nil
}

// do routes one request: through the coalescing batcher when it
// qualifies, directly through the store otherwise.
func (s *Server) do(req *Request) (*Response, error) {
	if !s.coalescable(req) {
		return s.store.Do(req)
	}
	return s.doCoalesced(req)
}

// coalescable reports whether a request may ride a shared MultBatch:
// single-vector, list-form response, no accumulate (an accumulator
// cannot be shared), with any mask becoming a per-slot batch mask.
func (s *Server) coalescable(req *Request) bool {
	return s.maxBatch > 1 &&
		req.X != nil && !req.Desc.Accum && req.Desc.Masks == nil &&
		req.Desc.Output != OutputBitmap
}

// doCoalesced validates the request immediately (so malformed requests
// fail fast and cannot poison a batch), then submits it to the batcher
// for its (matrix, descriptor-compatibility) key.
func (s *Server) doCoalesced(req *Request) (*Response, error) {
	nrows, ncols, stats, err := s.store.resolveMult(req.Matrix)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := req.Validate(nrows, ncols); err != nil {
		stats.Observe(time.Since(t), true)
		return nil, wireErrorf(CodeInvalidRequest, "%v", err)
	}
	sr, _ := ParseSemiring(req.Desc.Semiring)
	key := batchKey{req.Matrix, sr.Name, req.Desc.Transpose, req.Desc.Complement}
	bi, ok := s.batchers.Load(key)
	if !ok {
		bi, _ = s.batchers.LoadOrStore(key, &multBatcher{server: s, matrix: req.Matrix})
	}
	b := bi.(*multBatcher)

	out := b.submit(req.X, req.Desc)
	stats.Observe(time.Since(t), out.err != nil)
	if out.err != nil {
		return nil, out.err
	}
	return &Response{Y: out.y, OutputRep: OutputList.String()}, nil
}

// batchKey groups requests that may share one MultBatch: the same
// matrix under the same semiring (canonical name), transpose and mask
// complement.
type batchKey struct {
	matrix     string
	semiring   string
	transpose  bool
	complement bool
}

// multBatcher coalesces validated single-vector requests that share a
// batch key into MultBatch flushes, without a timer: a request waits
// for company only while a flush is running. The first request to
// reach an idle batcher leads — it yields once so handlers that are
// already runnable can join, then flushes up to the server's batch
// size. Requests that arrive during a flush queue for the next one,
// which the first of them leads once the running flush hands over.
type multBatcher struct {
	server *Server
	matrix string

	mu      sync.Mutex
	pending []*pendingMult
	busy    bool // a leader is yielding or flushing
}

type pendingMult struct {
	x    *Vector
	desc Desc
	done chan batchOut
}

// batchOut is a slot's result, or (lead set) the hand-over that makes
// the slot's goroutine flush the next batch, its own request first.
type batchOut struct {
	y    *Vector
	err  error
	lead bool
}

// submit enqueues one request and blocks until its slot's result.
func (b *multBatcher) submit(x *Vector, d Desc) batchOut {
	p := &pendingMult{x: x, desc: d, done: make(chan batchOut, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, p)
	leader := !b.busy
	b.busy = true
	b.mu.Unlock()
	if leader {
		// On one P this yield is the only way another handler can
		// join; with nothing else runnable it returns at once.
		runtime.Gosched()
	} else if out := <-p.done; !out.lead {
		return out
	}
	b.lead()
	return <-p.done
}

// lead flushes the head of the queue — which holds the leader's own
// request, so the leader never flushes twice — and then hands the
// remainder to its first request, or marks the batcher idle.
func (b *multBatcher) lead() {
	b.mu.Lock()
	batch := b.pending
	if n := b.server.maxBatch; len(batch) > n {
		b.pending = append([]*pendingMult(nil), batch[n:]...)
		batch = batch[:n]
	} else {
		b.pending = nil
	}
	b.mu.Unlock()

	b.flush(batch)

	// busy stays set across a hand-over, so next stays at the head of
	// the queue until it takes its batch.
	var next *pendingMult
	b.mu.Lock()
	if len(b.pending) > 0 {
		next = b.pending[0]
	} else {
		b.busy = false
	}
	b.mu.Unlock()
	if next != nil {
		next.done <- batchOut{lead: true}
	}
}

// flush executes one gathered batch through the store's multBatch hook
// and delivers each slot's result; a panic is recovered into an error
// for every slot not yet answered. The backend resolves the matrix per
// flush, so a matrix replaced in the store between flushes is picked
// up; over a sharded backend the whole batch rides one scatter.
func (b *multBatcher) flush(batch []*pendingMult) {
	sent := 0
	defer func() {
		if r := recover(); r != nil {
			for _, p := range batch[sent:] {
				p.done <- batchOut{err: wireErrorf(CodeInternal, "batched multiply: %v", r)}
			}
		}
	}()
	xs := make([]*Vector, len(batch))
	masks := make([]*BitVector, len(batch))
	for q, p := range batch {
		xs[q] = p.x
		masks[q] = p.desc.Mask
	}
	ys, err := b.server.store.multBatch(b.matrix, xs, masks, batch[0].desc)
	for _, p := range batch {
		if err != nil {
			p.done <- batchOut{err: err}
		} else {
			p.done <- batchOut{y: ys[sent]}
		}
		sent++
	}
}

// BatcherStats reports process-level coalescing totals summed over
// every matrix: how many requests rode shared batches and how many
// flushes were issued. (Per-matrix splits live on the StoreStats.)
func (s *Server) BatcherStats() (coalesced, batches int64) {
	for _, stat := range s.store.StatsAll() {
		coalesced += stat.Serve.Coalesced
		batches += stat.Serve.Batches
	}
	return
}
