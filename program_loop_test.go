// Tests for the dataflow subsystem: scalar ops (scale/axpy/
// ewise_mult/reduce/prune), the bounded loop construct with
// until_empty/until_below exits, the loop-based BFS against its
// unrolled oracle, server-side PageRank bit-identity against the
// in-process iteration, and the stored-procedure registry with its
// zero-recompile contract.
package spmspv_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	spmspv "spmspv"
	"spmspv/internal/dataflow"
	"spmspv/internal/engine"
	"spmspv/internal/testutil"
)

func fptr(v float64) *float64 { return &v }

// TestProgramScalarOps pins the semantics of each scalar op through
// Store.Run against hand-computed expectations.
func TestProgramScalarOps(t *testing.T) {
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	x := testutil.VectorWithIndices(10, 1, 3, 5) // values 1 at 1,3,5
	x.Val[0], x.Val[1], x.Val[2] = 2, -3, 4
	z := testutil.VectorWithIndices(10, 3, 5, 7)
	z.Val[0], z.Val[1], z.Val[2] = 10, 20, 30

	resp, err := st.Run(&spmspv.Program{Ops: []spmspv.ProgramOp{
		{Op: "input", X: x}, // $0
		{Op: "input", X: z}, // $1
		{Op: "scale", XRef: "$0", Alpha: fptr(2), Emit: true},             // $2: 2x
		{Op: "axpy", XRef: "$0", YRef: "$1", Alpha: fptr(-1), Emit: true}, // $3: -x+z
		{Op: "ewise_mult", XRef: "$0", YRef: "$1", Emit: true},            // $4: x.*z
		{Op: "reduce", Reduce: "sum", XRef: "$0", Emit: true},             // $5: 3
		{Op: "reduce", Reduce: "max", XRef: "$0", Emit: true},             // $6: 4
		{Op: "reduce", Reduce: "nnz", XRef: "$0", Emit: true},             // $7: 3
		{Op: "prune", XRef: "$0", Alpha: fptr(2.5), Emit: true},           // $8: |v|>2.5
		{Op: "scale", XRef: "$0", AlphaRef: "$6", Emit: true},             // $9: max(x)·x
	}}, // scale mutates a clone: $0 must still be 2,-3,4 when $9 runs
	)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Steps != 10 {
		t.Fatalf("Steps = %d, want 10", resp.Steps)
	}
	byOp := map[int]spmspv.ProgramResult{}
	for _, r := range resp.Results {
		byOp[r.Op] = r
	}
	wantVec := func(op int, ind []spmspv.Index, val []float64) {
		t.Helper()
		y := byOp[op].Y
		if y == nil {
			t.Fatalf("op %d: no vector result", op)
		}
		if len(y.Ind) != len(ind) {
			t.Fatalf("op %d: got %v/%v, want ind %v val %v", op, y.Ind, y.Val, ind, val)
		}
		for k := range ind {
			if y.Ind[k] != ind[k] || y.Val[k] != val[k] {
				t.Fatalf("op %d: got %v/%v, want ind %v val %v", op, y.Ind, y.Val, ind, val)
			}
		}
	}
	wantScalar := func(op int, want float64) {
		t.Helper()
		s := byOp[op].Scalar
		if s == nil {
			t.Fatalf("op %d: no scalar result", op)
		}
		if *s != want {
			t.Fatalf("op %d: scalar = %v, want %v", op, *s, want)
		}
	}
	wantVec(2, []spmspv.Index{1, 3, 5}, []float64{4, -6, 8})
	wantVec(3, []spmspv.Index{1, 3, 5, 7}, []float64{-2, 13, 16, 30})
	wantVec(4, []spmspv.Index{3, 5}, []float64{-30, 80})
	wantScalar(5, 3)
	wantScalar(6, 4)
	wantScalar(7, 3)
	wantVec(8, []spmspv.Index{3, 5}, []float64{-3, 4}) // |2| ≤ 2.5 dropped
	wantVec(9, []spmspv.Index{1, 3, 5}, []float64{8, -12, 16})
}

// TestProgramLoopSemantics pins the loop construct: per-iteration body
// emits, loop-carried updates applying on the final iteration, the
// until_below scalar exit, and max_iters exhaustion.
func TestProgramLoopSemantics(t *testing.T) {
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	x := testutil.VectorWithIndices(4, 0, 2)
	x.Val[0], x.Val[1] = 8, 4

	// Halve until max < 1: iterations produce max 4, 2, 1, 0.5 → exits
	// after iteration 4 (the first whose max is below the threshold).
	halving := func(maxIters int, threshold float64) *spmspv.Program {
		return &spmspv.Program{Ops: []spmspv.ProgramOp{
			{Op: "input", X: x},
			{
				Op:         "loop",
				Emit:       true,
				Carry:      []string{"$0"},
				MaxIters:   maxIters,
				Update:     []string{"$0"},
				UntilBelow: "$1",
				Threshold:  threshold,
				Body: []spmspv.ProgramOp{
					{Op: "scale", XRef: "^0", Alpha: fptr(0.5)},
					{Op: "reduce", Reduce: "max", XRef: "$0", Emit: true},
				},
			},
		}}
	}

	resp, err := st.Run(halving(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	var maxes []float64
	var finalY *spmspv.Vector
	for _, r := range resp.Results {
		switch {
		case r.Iter > 0:
			if r.Op != 1 || r.BodyOp != 1 || r.Iter != len(maxes)+1 {
				t.Fatalf("unexpected body result %+v", r)
			}
			maxes = append(maxes, *r.Scalar)
		default:
			finalY = r.Y
		}
	}
	want := []float64{4, 2, 1, 0.5}
	if len(maxes) != len(want) {
		t.Fatalf("per-iteration maxes %v, want %v", maxes, want)
	}
	for k := range want {
		if maxes[k] != want[k] {
			t.Fatalf("per-iteration maxes %v, want %v", maxes, want)
		}
	}
	if finalY == nil {
		t.Fatal("loop with emit returned no final value")
	}
	// Final carry: x/16 (the update applied on the exit iteration too).
	if finalY.Val[0] != 0.5 || finalY.Val[1] != 0.25 {
		t.Fatalf("final carry %v/%v, want values [0.5 0.25]", finalY.Ind, finalY.Val)
	}

	// Exhaustion: a threshold no positive max reaches stops the loop at
	// max_iters, without error.
	resp, err = st.Run(halving(3, -1))
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, r := range resp.Results {
		if r.Iter > 0 {
			iters++
		}
	}
	if iters != 3 {
		t.Fatalf("exhausted loop ran %d iterations, want 3", iters)
	}
}

// TestProgramValidateLoopGrammar pins the extended grammar's
// compile-time rejections: every case must error (and never panic).
func TestProgramValidateLoopGrammar(t *testing.T) {
	x := testutil.VectorWithIndices(10, 3)
	input := spmspv.ProgramOp{Op: "input", X: x}
	loop := func(mut func(*spmspv.ProgramOp)) *spmspv.Program {
		op := spmspv.ProgramOp{
			Op:         "loop",
			Carry:      []string{"$0"},
			MaxIters:   4,
			Update:     []string{"$0"},
			UntilEmpty: "$0",
			Body:       []spmspv.ProgramOp{{Op: "scale", XRef: "^0", Alpha: fptr(0.5)}},
		}
		mut(&op)
		return &spmspv.Program{Ops: []spmspv.ProgramOp{input, op}}
	}
	nested := func(depth int, emitInner bool) *spmspv.Program {
		op := spmspv.ProgramOp{Op: "scale", XRef: "^0", Alpha: fptr(0.5), Emit: emitInner}
		body := []spmspv.ProgramOp{op}
		for d := 0; d < depth; d++ {
			body = []spmspv.ProgramOp{{
				Op: "loop", Carry: []string{"^0"}, MaxIters: 2, Update: []string{"$0"}, Body: body,
			}}
		}
		outer := body[0]
		outer.Carry = []string{"$0"}
		return &spmspv.Program{Ops: []spmspv.ProgramOp{input, outer}}
	}

	cases := map[string]*spmspv.Program{
		"emptyBody":     loop(func(o *spmspv.ProgramOp) { o.Body = nil }),
		"zeroIters":     loop(func(o *spmspv.ProgramOp) { o.MaxIters = 0 }),
		"hugeIters":     loop(func(o *spmspv.ProgramOp) { o.MaxIters = 1 << 21 }),
		"noCarry":       loop(func(o *spmspv.ProgramOp) { o.Carry, o.Update = nil, nil }),
		"carryMismatch": loop(func(o *spmspv.ProgramOp) { o.Update = []string{"$0", "$0"} }),
		"carryForward":  loop(func(o *spmspv.ProgramOp) { o.Carry = []string{"$1"} }),
		"untilEmptyScalar": loop(func(o *spmspv.ProgramOp) {
			o.Body = append(o.Body, spmspv.ProgramOp{Op: "reduce", Reduce: "nnz", XRef: "$0"})
			o.UntilEmpty = "$1"
		}),
		"untilBelowVector": loop(func(o *spmspv.ProgramOp) { o.UntilEmpty = ""; o.UntilBelow = "$0" }),
		"updateScalarForVectorCarry": loop(func(o *spmspv.ProgramOp) {
			o.Body = append(o.Body, spmspv.ProgramOp{Op: "reduce", Reduce: "nnz", XRef: "$0"})
			o.Update = []string{"$1"}
		}),
		"carryOutsideLoop": {Ops: []spmspv.ProgramOp{input, {Op: "indices", XRef: "^0"}}},
		"badCarrySlot":     loop(func(o *spmspv.ProgramOp) { o.Body[0].XRef = "^3" }),
		"tooDeep":          nested(dataflow.MaxLoopDepth+1, false),
		"emitTooDeep":      nested(2, true),
		"inputBothForms":   {Ops: []spmspv.ProgramOp{{Op: "input", X: x, Param: "seed"}}},
		"badParamName":     {Ops: []spmspv.ProgramOp{{Op: "input", Param: "$seed"}}},
		"badReduce":        {Ops: []spmspv.ProgramOp{input, {Op: "reduce", Reduce: "median", XRef: "$0"}}},
		"scaleNoAlpha":     {Ops: []spmspv.ProgramOp{input, {Op: "scale", XRef: "$0"}}},
		"scaleBothAlphas":  {Ops: []spmspv.ProgramOp{input, {Op: "scale", XRef: "$0", Alpha: fptr(1), AlphaRef: "a"}}},
		"alphaRefVector":   {Ops: []spmspv.ProgramOp{input, {Op: "scale", XRef: "$0", AlphaRef: "$0"}}},
		"multScalarInput": {Ops: []spmspv.ProgramOp{
			input,
			{Op: "reduce", Reduce: "sum", XRef: "$0"},
			{XRef: "$1", Desc: spmspv.Desc{Semiring: "arithmetic"}},
		}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}

	// The whole stored-procedure forms compile.
	if err := spmspv.BFSProgram("g", 50, nil).Validate(); err != nil {
		t.Errorf("BFSProgram rejected: %v", err)
	}
	if err := spmspv.PageRankProgram("g", spmspv.PageRankOptions{}, nil).Validate(); err != nil {
		t.Errorf("PageRankProgram rejected: %v", err)
	}
	// Deepest legal nesting compiles.
	if err := nested(dataflow.MaxLoopDepth, false).Validate(); err != nil {
		t.Errorf("depth-%d nesting rejected: %v", dataflow.MaxLoopDepth, err)
	}
}

// programBFSUnrolled is the straight-line ancestor of ProgramBFS: the
// same masked level step unrolled n times with "$k" refs and a
// StopOnEmpty early exit, so a worst-case unroll costs only the levels
// the graph has — but the program itself is O(n) ops where the loop
// form is O(1). It is the test oracle for the loop construct
// (identical results, op for op).
func programBFSUnrolled(ex spmspv.Executor, matrix string, n, source spmspv.Index) (*spmspv.BFSResult, error) {
	ref := func(k int) string { return "$" + strconv.Itoa(k) }
	seed := spmspv.NewVector(n, 1)
	seed.Append(source, float64(source))
	prog := &spmspv.Program{Matrix: matrix, StopOnEmpty: true}
	prog.Ops = append(prog.Ops, spmspv.ProgramOp{Op: "input", X: seed}) // $0
	frontier, visited := 0, 0
	var multOps []int
	for level := spmspv.Index(0); level < n; level++ {
		prog.Ops = append(prog.Ops, spmspv.ProgramOp{
			XRef:    ref(frontier),
			MaskRef: ref(visited),
			Desc:    spmspv.Desc{Complement: true, Semiring: "bfs"},
			Emit:    true,
		})
		y := len(prog.Ops) - 1
		multOps = append(multOps, y)
		prog.Ops = append(prog.Ops, spmspv.ProgramOp{Op: "union", XRef: ref(visited), YRef: ref(y)})
		visited = len(prog.Ops) - 1
		prog.Ops = append(prog.Ops, spmspv.ProgramOp{Op: "indices", XRef: ref(y)})
		frontier = len(prog.Ops) - 1
	}

	resp, err := ex.Run(prog)
	if err != nil {
		return nil, err
	}
	emitted := make(map[int]*spmspv.Vector, len(resp.Results))
	for _, r := range resp.Results {
		emitted[r.Op] = r.Y
	}

	// Fold the per-level discovery vectors into a BFSResult exactly as
	// the in-process BFS records it: each discovered vertex's value is
	// its parent, and FrontierSizes counts nnz(x) per multiply.
	res := &spmspv.BFSResult{
		Parents:       make([]spmspv.Index, n),
		Levels:        make([]int32, n),
		FrontierSizes: []int{1},
	}
	for i := range res.Parents {
		res.Parents[i], res.Levels[i] = -1, -1
	}
	res.Parents[source], res.Levels[source] = source, 0
	for level, opIdx := range multOps {
		if opIdx >= resp.Steps {
			break
		}
		y, ok := emitted[opIdx]
		if !ok {
			return nil, fmt.Errorf("program response missing emitted op %d", opIdx)
		}
		for k, i := range y.Ind {
			res.Levels[i] = int32(level + 1)
			res.Parents[i] = spmspv.Index(y.Val[k])
		}
		if y.NNZ() == 0 {
			return res, nil
		}
		res.FrontierSizes = append(res.FrontierSizes, y.NNZ())
	}
	return nil, fmt.Errorf("BFS did not terminate within %d levels", n)
}

// TestProgramBFSLoopVsUnrolled runs the loop-based BFS against the
// unrolled oracle AND the in-process algorithm on every engine — the
// loop construct must not change a single parent, level or frontier
// size.
func TestProgramBFSLoopVsUnrolled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testutil.RandomCSC(rng, 140, 140, 3)
	for _, alg := range spmspv.Algorithms() {
		st := spmspv.NewStore(spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2)))
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		mu, err := st.Load("g")
		if err != nil {
			t.Fatal(err)
		}
		want := spmspv.BFS(mu, 0)
		loop, err := spmspv.ProgramBFS(st, "g", a.NumCols, 0, 0)
		if err != nil {
			t.Fatalf("%v: loop BFS: %v", alg, err)
		}
		unrolled, err := programBFSUnrolled(st, "g", a.NumCols, 0)
		if err != nil {
			t.Fatalf("%v: unrolled BFS: %v", alg, err)
		}
		compareBFS(t, alg.String()+"/loop", loop, want)
		compareBFS(t, alg.String()+"/unrolled", unrolled, want)

		// The loop program is constant-size; the unrolled one is not.
		if ops := len(spmspv.BFSProgram("g", int(a.NumCols), nil).Ops); ops != 2 {
			t.Fatalf("loop BFS program has %d ops, want 2", ops)
		}
	}
}

// comparePageRank demands bit-identity: the server-side program must
// reproduce the in-process iteration float for float.
func comparePageRank(t *testing.T, label string, got, want *spmspv.PageRankResult) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: %d iterations, want %d", label, got.Iterations, want.Iterations)
	}
	if len(got.ActiveCounts) != len(want.ActiveCounts) {
		t.Fatalf("%s: active counts %v, want %v", label, got.ActiveCounts, want.ActiveCounts)
	}
	for k := range want.ActiveCounts {
		if got.ActiveCounts[k] != want.ActiveCounts[k] {
			t.Fatalf("%s: active counts %v, want %v", label, got.ActiveCounts, want.ActiveCounts)
		}
	}
	if len(got.Ranks) != len(want.Ranks) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got.Ranks), len(want.Ranks))
	}
	for i := range want.Ranks {
		if math.Float64bits(got.Ranks[i]) != math.Float64bits(want.Ranks[i]) {
			t.Fatalf("%s: rank[%d] = %v, want %v (not bit-identical)", label, i, got.Ranks[i], want.Ranks[i])
		}
	}
}

// TestProgramPageRank runs the server-side PageRank program on every
// engine, unsharded and sharded, against the in-process
// algorithms.PageRank — bit-identical ranks, active counts and
// iteration counts.
func TestProgramPageRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := spmspv.NormalizeColumns(testutil.RandomCSC(rng, 90, 90, 4))
	opt := spmspv.PageRankOptions{Tol: 1e-6, MaxIter: 60}
	for _, alg := range spmspv.Algorithms() {
		opts := []spmspv.Option{spmspv.WithAlgorithm(alg), spmspv.WithEngineOptions(engineOptions(2))}
		st := spmspv.NewStore(opts...)
		if err := st.Put("g", a); err != nil {
			t.Fatal(err)
		}
		mu, err := st.Load("g")
		if err != nil {
			t.Fatal(err)
		}
		want := spmspv.PageRank(mu, opt)
		if want.Iterations < 3 {
			t.Fatalf("%v: reference converged in %d iterations; graph too easy", alg, want.Iterations)
		}
		got, err := spmspv.ProgramPageRank(st, "g", a.NumCols, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		comparePageRank(t, alg.String(), got, want)

		ss := newLocalSharded(t, 3, opts...)
		if err := ss.Put("g", a); err != nil {
			t.Fatal(err)
		}
		sharded, err := spmspv.ProgramPageRank(ss, "g", a.NumCols, opt)
		if err != nil {
			t.Fatalf("%v sharded: %v", alg, err)
		}
		comparePageRank(t, alg.String()+"/sharded", sharded, want)
	}
}

// TestStoredProgramRegistry pins the registry lifecycle on the Store:
// put/get/list/delete, invoking by name with seed and scalar bindings,
// and the zero-recompile contract on warm invoke traffic.
func TestStoredProgramRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := testutil.RandomCSC(rng, 100, 100, 4)
	st := spmspv.NewStore(spmspv.WithEngineOptions(engineOptions(2)))
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}

	if _, err := st.PutProgram("bfs", spmspv.BFSProgram("g", int(a.NumCols), nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutProgram("bad/name", spmspv.BFSProgram("g", 4, nil)); err == nil {
		t.Error("slash-named program registered")
	}
	if _, err := st.PutProgram("broken", &spmspv.Program{}); err == nil {
		t.Error("invalid program registered")
	}
	got, err := st.GetProgram("bfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 2 || got.Matrix != "g" {
		t.Fatalf("stored program came back as %d ops on %q", len(got.Ops), got.Matrix)
	}
	if _, err := st.Invoke("nope", nil); spmspv.AsWireError(err).Code != spmspv.CodeUnknownProgram {
		t.Fatalf("unknown program: %v", err)
	}

	// Invoke by name: only the seed rides; results decode identically
	// to the one-shot program path.
	mu, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	want := spmspv.BFS(mu, 3)
	seed := spmspv.NewVector(a.NumCols, 1)
	seed.Append(3, 3)
	invoke := func() *spmspv.BFSResult {
		t.Helper()
		resp, err := st.Invoke("bfs", &spmspv.InvokeRequest{Args: map[string]*spmspv.Vector{"seed": seed}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spmspv.DecodeBFSProgramResponse(resp, a.NumCols, 3, int(a.NumCols))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compareBFS(t, "invoke", invoke(), want)

	// A missing binding is an invoke-time error, not a panic.
	if _, err := st.Invoke("bfs", nil); err == nil {
		t.Error("invoke without the seed binding succeeded")
	}

	// Warm invokes recompile nothing: neither engine plans nor
	// programs.
	plansBefore, progsBefore := engine.PlanCompilations(), dataflow.Compilations()
	for i := 0; i < 5; i++ {
		compareBFS(t, "warm invoke", invoke(), want)
	}
	if d := engine.PlanCompilations() - plansBefore; d != 0 {
		t.Errorf("warm invokes compiled %d engine plans, want 0", d)
	}
	if d := dataflow.Compilations() - progsBefore; d != 0 {
		t.Errorf("warm invokes compiled %d programs, want 0", d)
	}

	// Per-program counters observed every invoke.
	stats := st.Programs()
	if len(stats) != 1 || stats[0].Name != "bfs" {
		t.Fatalf("Programs() = %+v, want one entry 'bfs'", stats)
	}
	if stats[0].Serve.Requests != 7 { // 6 good + the missing-binding invoke
		t.Errorf("program served %d invokes, want 7", stats[0].Serve.Requests)
	}
	if stats[0].Serve.Failures != 1 { // unknown-name invoke hit no entry, so just 1
		t.Errorf("program recorded %d failures, want 1", stats[0].Serve.Failures)
	}

	if !st.DeleteProgram("bfs") {
		t.Error("DeleteProgram(bfs) = false")
	}
	if st.DeleteProgram("bfs") {
		t.Error("second DeleteProgram(bfs) = true")
	}
}

// TestStoredProgramScalarBindings invokes the stored PageRank form —
// seed vector plus damping/tol scalar bindings on the wire — on both
// backends and demands bit-identity with the in-process run.
func TestStoredProgramScalarBindings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := spmspv.NormalizeColumns(testutil.RandomCSC(rng, 70, 70, 4))
	opt := spmspv.PageRankOptions{Damping: 0.9, Tol: 1e-7, MaxIter: 80}
	opts := []spmspv.Option{spmspv.WithEngineOptions(engineOptions(2))}

	st := spmspv.NewStore(opts...)
	if err := st.Put("g", a); err != nil {
		t.Fatal(err)
	}
	mu, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	want := spmspv.PageRank(mu, opt)

	ss := newLocalSharded(t, 2, opts...)
	if err := ss.Put("g", a); err != nil {
		t.Fatal(err)
	}

	seed := spmspv.PageRankSeed(a.NumCols, opt.Damping)
	inv := &spmspv.InvokeRequest{
		Args:    map[string]*spmspv.Vector{"seed": seed},
		Scalars: map[string]float64{"damping": opt.Damping, "tol": opt.Tol},
	}
	for label, backend := range map[string]interface {
		PutProgram(string, *spmspv.Program) (*spmspv.ProgramStat, error)
		Invoke(string, *spmspv.InvokeRequest) (*spmspv.ProgramResponse, error)
	}{"store": st, "sharded": ss} {
		if _, err := backend.PutProgram("pagerank", spmspv.PageRankProgram("g", opt, nil)); err != nil {
			t.Fatal(err)
		}
		resp, err := backend.Invoke("pagerank", inv)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := spmspv.DecodePageRankProgramResponse(resp, a.NumCols)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		comparePageRank(t, label, got, want)
	}
}
