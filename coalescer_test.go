package spmspv

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"spmspv/internal/baselines"
	"spmspv/internal/testutil"
)

// gatedStore is a Store whose first batched multiply blocks until
// wait more requests have queued behind it, so a test fixes exactly
// which requests arrive during a running flush. It records every
// flush's width, and hook (when set) may rewrite or fail a flush's
// results.
type gatedStore struct {
	*Store
	srv     *Server
	wait    int
	entered chan struct{}
	hook    func(flush int, ys []*Vector) []*Vector

	mu     sync.Mutex
	widths []int
}

func (g *gatedStore) multBatch(name string, xs []*Vector, masks []*BitVector, d Desc) ([]*Vector, error) {
	g.mu.Lock()
	flush := len(g.widths)
	g.widths = append(g.widths, len(xs))
	g.mu.Unlock()
	if flush == 0 {
		close(g.entered)
		deadline := time.Now().Add(10 * time.Second)
		for g.queued() < g.wait && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	ys, err := g.Store.multBatch(name, xs, masks, d)
	if err == nil && g.hook != nil {
		ys = g.hook(flush, ys)
	}
	return ys, err
}

// queued counts the requests waiting in the server's batchers.
func (g *gatedStore) queued() int {
	n := 0
	g.srv.batchers.Range(func(_, v any) bool {
		b := v.(*multBatcher)
		b.mu.Lock()
		n += len(b.pending)
		b.mu.Unlock()
		return true
	})
	return n
}

func (g *gatedStore) flushWidths() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.widths...)
}

// newGated registers a small integer-valued matrix (so every product
// is exact and the reference is bit-identical) behind a gated server.
func newGated(t *testing.T, wait int, opts ...ServerOption) (*gatedStore, *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	a := testutil.RandomCSC(rng, 120, 120, 4)
	for k := range a.Val {
		a.Val[k] = float64(rng.Intn(8) + 1)
	}
	st := NewStore(WithEngineOptions(Options{Threads: 2, SortOutput: true}))
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	g := &gatedStore{Store: st, wait: wait, entered: make(chan struct{})}
	g.srv = NewServer(g, opts...)
	return g, a
}

// intVector draws a sorted frontier with small integer values.
func intVector(rng *rand.Rand, n Index) *Vector {
	x := testutil.RandomVector(rng, n, 1+rng.Intn(12), true)
	for k := range x.Val {
		x.Val[k] = float64(rng.Intn(8) + 1)
	}
	return x
}

// checkSlot fails unless a served result equals the sequential
// reference for its own input, with tolerance zero.
func checkSlot(t *testing.T, label string, a *Matrix, x *Vector, resp *Response, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := baselines.Reference(a, x, Arithmetic); !resp.Y.EqualValues(want, 0) {
		t.Fatalf("%s: result differs from its own reference", label)
	}
}

func multReq(x *Vector) *Request {
	return &Request{Matrix: "g", X: x, Desc: Desc{Semiring: "arithmetic"}}
}

// serveGated sends xs[0] alone and, once its flush has started, the
// rest concurrently, so those arrive while the first flush runs.
func serveGated(g *gatedStore, xs []*Vector) ([]*Response, []error) {
	resps := make([]*Response, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		resps[i], errs[i] = g.srv.do(multReq(xs[i]))
	}
	wg.Add(1)
	go run(0)
	<-g.entered
	for i := 1; i < len(xs); i++ {
		wg.Add(1)
		go run(i)
	}
	wg.Wait()
	return resps, errs
}

// TestCoalescerLeaderHandoff pins the coalescing rule: a lone request
// flushes alone, the k requests that arrive while it runs ride the
// next flush together (at most the batch size per flush), and a
// remainder goes to a fresh leader.
func TestCoalescerLeaderHandoff(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBatch int
		k        int
		want     []int
	}{
		{"fits", 4, 3, []int{1, 3}},
		{"full", 4, 4, []int{1, 4}},
		{"overflow", 4, 7, []int{1, 4, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, a := newGated(t, tc.k, WithBatchSize(tc.maxBatch))
			rng := rand.New(rand.NewSource(62))
			xs := make([]*Vector, 1+tc.k)
			for i := range xs {
				xs[i] = intVector(rng, a.NumCols)
			}
			resps, errs := serveGated(g, xs)
			for i, x := range xs {
				checkSlot(t, "slot", a, x, resps[i], errs[i])
			}
			if got := g.flushWidths(); !slices.Equal(got, tc.want) {
				t.Fatalf("flush widths %v, want %v", got, tc.want)
			}
			coalesced, _ := g.srv.BatcherStats()
			if coalesced != int64(tc.k) {
				t.Errorf("coalesced %d, want %d", coalesced, tc.k)
			}
		})
	}
}

// TestCoalescerSequentialNoWait pins that requests that never overlap
// never wait for company: on a default server each one flushes alone.
func TestCoalescerSequentialNoWait(t *testing.T) {
	g, a := newGated(t, 0)
	rng := rand.New(rand.NewSource(63))
	const n = 20
	for i := 0; i < n; i++ {
		x := intVector(rng, a.NumCols)
		resp, err := g.srv.do(multReq(x))
		checkSlot(t, "sequential", a, x, resp, err)
	}
	widths := g.flushWidths()
	if len(widths) != n {
		t.Fatalf("%d flushes for %d sequential requests", len(widths), n)
	}
	for i, w := range widths {
		if w != 1 {
			t.Fatalf("flush %d carried %d requests, want 1", i, w)
		}
	}
	if coalesced, batches := g.srv.BatcherStats(); coalesced != 0 || batches != 0 {
		t.Errorf("sequential requests coalesced: coalesced=%d batches=%d", coalesced, batches)
	}
}

// TestCoalescerRecoversPanic pins that a flush whose backend panics
// answers every unanswered slot with an internal error and still
// releases the batcher: later requests are served normally.
func TestCoalescerRecoversPanic(t *testing.T) {
	g, a := newGated(t, 3, WithBatchSize(4))
	// The second flush loses its last result, so delivering that slot
	// panics after the first two slots were answered.
	g.hook = func(flush int, ys []*Vector) []*Vector {
		if flush == 1 {
			return ys[:len(ys)-1]
		}
		return ys
	}
	rng := rand.New(rand.NewSource(64))
	xs := make([]*Vector, 4)
	for i := range xs {
		xs[i] = intVector(rng, a.NumCols)
	}
	resps, errs := serveGated(g, xs)
	failed := 0
	for i, x := range xs {
		if errs[i] != nil {
			if AsWireError(errs[i]).Code != CodeInternal {
				t.Fatalf("slot %d: %v, want an internal error", i, errs[i])
			}
			failed++
			continue
		}
		checkSlot(t, "slot", a, x, resps[i], nil)
	}
	if failed != 1 {
		t.Fatalf("%d slots failed, want exactly the one whose result was lost", failed)
	}

	x := intVector(rng, a.NumCols)
	resp, err := g.srv.do(multReq(x))
	checkSlot(t, "after panic", a, x, resp, err)
}
