package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spmspv"
	"spmspv/internal/core"
)

// stack is one ready-to-serve instance of a workload's system under
// test, built fresh for every set-up.
type stack interface {
	// setup takes the stack from an in-memory matrix to ready to
	// serve and answers operation 0 of caller 0, whose output it
	// returns for checking; it is the timed set-up.
	setup() (any, error)
	// op runs operation k of closed-loop caller c; check verifies its
	// output and returns the edges (matrix entries) it traversed.
	op(ctx context.Context, c, k int) (any, error)
	check(c, k int, out any) (int64, error)
	// key names the distinct operation that operation k of caller c
	// repeats: the same key always does the same work.
	key(c, k int) int
	// verify runs the checks deferred out of the timed loop.
	verify() error
	// mark snapshots the layers' counters before the traced loop;
	// layers fills the per-layer metrics after it.
	mark()
	layers(l map[string]float64, spans []span, lp loopStats) error
	close()
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	why     string // recorded in BENCHMARK.json
	callers int
	opSpan  string // span name of one operation on the caller's side
	// inputs generates the seeded graph and operation list (not timed)
	// and returns the stack constructor; rec is nil for untraced stacks.
	inputs func(cfg config) (open func(rec *recorder) (stack, error), mats []matrixSize, err error)
}

// setupWarmups is the number of untimed set-ups before the timed ones.
const setupWarmups = 2

// loopStats is what one closed loop measured.
type loopStats struct {
	lat       []time.Duration // successful operations
	keys      []int           // key of each entry of lat
	edges     []int64         // edges of each entry of lat
	attempted int
	failed    int
	wrong     string
}

// repeats summarises a loop by each distinct operation's fastest
// repeat. A shared host steals time from some repeats of an operation
// but rarely from all of them, so the fastest repeat measures the
// operation's own cost and stays put when neighbours get busy, where
// a mean or a median over all samples moves with them.
type repeats struct {
	keys    int           // distinct operations completed
	minReps int           // fewest repeats of any of them
	total   time.Duration // sum of each one's fastest repeat
	edges   int64         // sum of each one's edges
	p50     time.Duration // median of each one's fastest repeat
}

func fastestRepeats(lp loopStats) repeats {
	fastest := map[int]time.Duration{}
	edges := map[int]int64{}
	reps := map[int]int{}
	for i, k := range lp.keys {
		if d, ok := fastest[k]; !ok || lp.lat[i] < d {
			fastest[k] = lp.lat[i]
		}
		edges[k] = lp.edges[i]
		reps[k]++
	}
	r := repeats{keys: len(fastest), minReps: math.MaxInt}
	var all []time.Duration
	for k, d := range fastest {
		r.total += d
		r.edges += edges[k]
		r.minReps = min(r.minReps, reps[k])
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.p50 = percentile(all, 0.5)
	return r
}

// closedLoop runs len(next) callers for d, each issuing its next
// operation only after the previous one completed; caller c starts at
// operation next[c] and leaves there the one it would issue next.
// Latency covers the operation alone; the output check runs after the
// clock stops.
func closedLoop(st stack, next []int, d time.Duration, rec *recorder, opSpan string) loopStats {
	var (
		mu   sync.Mutex
		all  loopStats
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ls loopStats
			k := next[c]
			defer func() { next[c] = k }()
			for ; !stop.Load() && time.Now().Before(deadline); k++ {
				ctx, id := context.Background(), -1
				if rec != nil {
					op := rec.nextOp()
					id = rec.begin(opSpan, op, -1, 0)
					ctx = withSpan(ctx, op, id)
				}
				t := time.Now()
				out, err := st.op(ctx, c, k)
				lat := time.Since(t)
				if rec != nil {
					rec.end(id)
				}
				ls.attempted++
				if err != nil {
					ls.failed++
					continue
				}
				edges, err := st.check(c, k, out)
				if err != nil {
					ls.wrong = err.Error()
					stop.Store(true)
					break
				}
				ls.lat = append(ls.lat, lat)
				ls.keys = append(ls.keys, st.key(c, k))
				ls.edges = append(ls.edges, edges)
			}
			mu.Lock()
			all.lat = append(all.lat, ls.lat...)
			all.keys = append(all.keys, ls.keys...)
			all.edges = append(all.edges, ls.edges...)
			all.attempted += ls.attempted
			all.failed += ls.failed
			if all.wrong == "" {
				all.wrong = ls.wrong
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

func medianLatency(lat []time.Duration) float64 {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, 0.5))
}

// run measures w under cfg: end-to-end metrics with tracing off, or,
// traced, an untraced half and a traced half of the run.
func (w *workload) run(cfg config) (*result, error) {
	open, mats, err := w.inputs(cfg)
	if err != nil {
		return nil, err
	}
	fp := newFingerprint(cfg, mats...)
	if cfg.trace {
		return w.traced(cfg, fp, open)
	}
	r := newResult(fp, endToEnd)
	r.why = w.why

	// The first set-ups of a process also fault in the heap's pages;
	// they run untimed, so setup_s measures set-up work.
	for i := 0; i < setupWarmups; i++ {
		st, err := open(nil)
		if err != nil {
			return nil, err
		}
		err = setupChecked(st)
		st.close()
		if err != nil {
			return nil, err
		}
	}
	// The measured stack's set-up is the first timed one; the others run
	// on throwaway stacks between segments of the measured loop, so that
	// setup_s and the loop sample the same stretch of host time.
	st, err := open(nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setup, err := timedSetup(st)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}
	next := make([]int, w.callers)
	reps := cfg.size.setupReps
	var lp loopStats
	for i := 0; i < reps; i++ {
		seg := closedLoop(st, next, cfg.measure/time.Duration(reps), nil, w.opSpan)
		lp.lat = append(lp.lat, seg.lat...)
		lp.keys = append(lp.keys, seg.keys...)
		lp.edges = append(lp.edges, seg.edges...)
		lp.attempted += seg.attempted
		lp.failed += seg.failed
		lp.wrong = seg.wrong
		if i == reps-1 || lp.wrong != "" {
			break
		}
		other, err := open(nil)
		if err != nil {
			return nil, err
		}
		setup, err := timedSetup(other)
		other.close()
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	r.values["setup_s"] = median(setups)
	if lp.wrong == "" {
		if err := st.verify(); err != nil {
			lp.wrong = err.Error()
		}
	}
	// Live heap once warm: the kernel sizes its workspaces lazily to
	// the largest frontier seen, so right after set-up the heap would
	// depend on which search came first.
	r.values["heap_mb"] = liveHeapMB()
	if lp.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", cfg.measure)
	}
	r.attempted, r.failed, r.wrong = lp.attempted, lp.failed, lp.wrong
	best := fastestRepeats(lp)
	secs := best.total.Seconds()
	r.values["teps"] = float64(best.edges) / secs
	// Little's law for a closed loop without think time: callers over
	// the mean latency.
	r.values["throughput_rps"] = float64(w.callers*best.keys) / secs
	r.values["best_latency_p50_ms"] = float64(best.p50) / 1e6
	latencySummary(r, lp, best)
	r.report = append(r.report, fmt.Sprintf("  set-up times (s, %d reps): %v", len(setups), setups))
	return r, nil
}

// timedSetup runs st's set-up after a forced collection, checks it, and
// returns its duration in seconds.
func timedSetup(st stack) (float64, error) {
	runtime.GC()
	t := time.Now()
	out, err := st.setup()
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	d := time.Since(t).Seconds()
	return d, checkSetup(st, out)
}

// checkSetup checks the output of a set-up's first operation. A wrong
// output there is reported like any other failed check: the run stops
// with an error.
func checkSetup(st stack, out any) error {
	if _, err := st.check(0, 0, out); err != nil {
		return fmt.Errorf("incorrect output during setup: %w", err)
	}
	if err := st.verify(); err != nil {
		return fmt.Errorf("incorrect output during setup: %w", err)
	}
	return nil
}

// setupChecked runs an untimed set-up and checks it.
func setupChecked(st stack) error {
	out, err := st.setup()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return checkSetup(st, out)
}

// traced measures half the run untraced, then half with spans on a
// freshly built traced stack, and derives the per-layer metrics.
func (w *workload) traced(cfg config, fp fingerprint, open func(*recorder) (stack, error)) (*result, error) {
	r := newResult(fp, perLayer)
	r.why = w.why
	half := cfg.measure / 2

	st, err := open(nil)
	if err != nil {
		return nil, err
	}
	if err := setupChecked(st); err != nil {
		st.close()
		return nil, err
	}
	base := closedLoop(st, make([]int, w.callers), half, nil, w.opSpan)
	if base.wrong == "" {
		if err := st.verify(); err != nil {
			base.wrong = err.Error()
		}
	}
	st.close()

	rec := newRecorder()
	if st, err = open(rec); err != nil {
		return nil, err
	}
	defer st.close()
	if err := setupChecked(st); err != nil {
		return nil, err
	}
	st.mark()
	from := rec.now()
	lp := closedLoop(st, make([]int, w.callers), half, rec, w.opSpan)
	if lp.wrong == "" {
		if err := st.verify(); err != nil {
			lp.wrong = err.Error()
		}
	}
	if base.attempted == 0 || lp.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", half)
	}
	r.attempted = base.attempted + lp.attempted
	r.failed = base.failed + lp.failed
	r.wrong = base.wrong
	if r.wrong == "" {
		r.wrong = lp.wrong
	}
	if r.wrong != "" || len(lp.lat) == 0 || len(base.lat) == 0 {
		return r, nil
	}
	// Only the measured loop's spans: set-up requests are not operations.
	var spans []span
	for _, sp := range rec.snapshot() {
		if sp.Start >= from {
			spans = append(spans, sp)
		}
	}
	if err := st.layers(r.values, spans, lp); err != nil {
		return nil, err
	}
	r.values["trace.overhead"] = medianLatency(lp.lat) / medianLatency(base.lat)
	r.report = append(r.report, fmt.Sprintf("workload %s seed %d: %d untraced and %d traced operations",
		cfg.workload, cfg.seed, len(base.lat), len(lp.lat)))
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "stackbench: writing spans: %v\n", err)
		} else {
			r.report = append(r.report, "  spans written to "+path)
		}
	}
	return r, nil
}

// counterLayers fills the work-counter metrics from a counter delta
// over ops operations.
func counterLayers(l map[string]float64, d spmspv.Counters, ops int) {
	n := float64(ops)
	if d.MatrixTouched > 0 {
		l["kernel.work_per_flop"] = float64(d.Work()) / float64(d.MatrixTouched)
	}
	l["par.idle_ms_per_op"] = float64(d.IdleNs) / 1e6 / n
	l["par.steals_per_op"] = float64(d.Steals) / n
	l["par.chunks_per_op"] = float64(d.ChunkClaims+d.Steals) / n
}

// counterDelta returns b − a for the counters counterLayers reads.
func counterDelta(a, b spmspv.Counters) spmspv.Counters {
	return spmspv.Counters{
		XScanned:      b.XScanned - a.XScanned,
		ColumnsProbed: b.ColumnsProbed - a.ColumnsProbed,
		MatrixTouched: b.MatrixTouched - a.MatrixTouched,
		SPAInit:       b.SPAInit - a.SPAInit,
		SPAUpdates:    b.SPAUpdates - a.SPAUpdates,
		BucketWrites:  b.BucketWrites - a.BucketWrites,
		HeapOps:       b.HeapOps - a.HeapOps,
		SortedElems:   b.SortedElems - a.SortedElems,
		OutputWritten: b.OutputWritten - a.OutputWritten,
		SyncEvents:    b.SyncEvents - a.SyncEvents,
		ChunkClaims:   b.ChunkClaims - a.ChunkClaims,
		Steals:        b.Steals - a.Steals,
		IdleNs:        b.IdleNs - a.IdleNs,
	}
}

// kernelCall is one SpMSpV call captured from an operation, replayed
// through the bucket kernel (internal/core) to split its time into the
// paper's Fig. 6 steps.
type kernelCall struct {
	a    *spmspv.Matrix
	x    *spmspv.Vector
	sr   spmspv.Semiring
	mask *spmspv.BitVector // complemented output mask, or nil
}

// replayKernel runs calls once to warm the workspaces, then once timed,
// sequentially: each call's step times are exact.
func replayKernel(l map[string]float64, calls []kernelCall, rec *recorder) {
	if len(calls) == 0 {
		return
	}
	ws := map[*spmspv.Matrix]*core.Workspace{}
	ys := map[*spmspv.Matrix]*spmspv.Vector{}
	for _, c := range calls {
		if ws[c.a] == nil {
			ws[c.a] = core.NewWorkspace(c.a.NumRows, 0)
			ys[c.a] = spmspv.NewVector(c.a.NumRows, 0)
		}
	}
	one := func(c kernelCall) {
		if c.mask != nil {
			core.MultiplyMasked(c.a, c.x, ys[c.a], c.sr, c.mask, true, ws[c.a], core.Options{})
		} else {
			core.Multiply(c.a, c.x, ys[c.a], c.sr, ws[c.a], core.Options{})
		}
	}
	for _, c := range calls {
		one(c)
	}
	var total, est, bucket, merge, output time.Duration
	for i, c := range calls {
		id := rec.begin("kernel.mult", int64(i), -1, 0)
		t := time.Now()
		one(c)
		total += time.Since(t)
		rec.end(id)
		s := ws[c.a].Steps
		est += s.Estimate
		bucket += s.Bucket
		merge += s.Merge + s.Sort
		output += s.Output
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(len(calls)) }
	l["kernel.mult_us"] = us(total)
	l["kernel.estimate_us"] = us(est)
	l["kernel.bucket_us"] = us(bucket)
	l["kernel.merge_us"] = us(merge)
	l["kernel.output_us"] = us(output)
}

// levelFrontiers rebuilds the input frontier of every SpMSpV call of a
// BFS from its levels: level L's vertices, valued with their own ids,
// for L = 0 through the deepest level (whose product finds nothing).
func levelFrontiers(levels []int32) []*spmspv.Vector {
	n := spmspv.Index(len(levels))
	var out []*spmspv.Vector
	for v, l := range levels {
		for int(l) >= len(out) {
			out = append(out, spmspv.NewVector(n, 0))
		}
		if l >= 0 {
			out[l].Append(spmspv.Index(v), float64(v))
		}
	}
	return out
}

// speedup times fn over the same operations at one thread and at the
// default, interleaved, and returns the 1-thread time over the default
// time: the single-threaded baseline of the executor.
func speedup(ops int, fn func(k int, oneThread bool)) float64 {
	fn(0, true) // warm both sides' workspaces
	fn(0, false)
	var t1, tn time.Duration
	for k := 0; k < ops; k++ {
		t := time.Now()
		fn(k, true)
		t1 += time.Since(t)
		t = time.Now()
		fn(k, false)
		tn += time.Since(t)
	}
	return float64(t1) / float64(tn)
}
