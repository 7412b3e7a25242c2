package dataflow

import (
	"math"
	"math/rand"
	"testing"

	"spmspv/internal/engine"
	"spmspv/internal/sparse"
)

// op returns an instruction of kind k with every reference unset.
func op(k Kind) Instr {
	return Instr{
		Kind:       k,
		XRef:       RefNone,
		YRef:       RefNone,
		MaskRef:    RefNone,
		AlphaRef:   RefNone,
		UntilEmpty: RefNone,
		UntilBelow: RefNone,
	}
}

// literal is a KInput of the given (index, value) pairs, flagged
// unsorted whatever their order.
func literal(n sparse.Index, ind []sparse.Index, val []float64) Instr {
	in := op(KInput)
	in.X = &sparse.SpVec{N: n, Ind: ind, Val: val}
	return in
}

// denseUnion is the elementwise union restated over dense arrays: each
// index folds x's entries in input order, then y's, with add(old, new).
func denseUnion(x, y *sparse.SpVec, add func(a, b float64) float64) *sparse.SpVec {
	val := make([]float64, x.N)
	seen := make([]bool, x.N)
	for _, v := range []*sparse.SpVec{x, y} {
		for k, i := range v.Ind {
			if seen[i] {
				val[i] = add(val[i], v.Val[k])
			} else {
				val[i], seen[i] = v.Val[k], true
			}
		}
	}
	out := sparse.NewSpVec(x.N, 0)
	for i, ok := range seen {
		if ok {
			out.Append(sparse.Index(i), val[i])
		}
	}
	return out
}

// denseIntersect is the elementwise intersection restated over dense
// arrays: each entry of x whose index y holds, in index order (x's
// input order among equal indices), times y's last entry there.
func denseIntersect(x, y *sparse.SpVec, mul func(a, b float64) float64) *sparse.SpVec {
	yv := make([]float64, y.N)
	has := make([]bool, y.N)
	for k, i := range y.Ind {
		yv[i], has[i] = y.Val[k], true
	}
	out := sparse.NewSpVec(x.N, 0)
	for i := sparse.Index(0); i < x.N; i++ {
		for k, xi := range x.Ind {
			if xi == i && has[i] {
				out.Append(i, mul(x.Val[k], yv[i]))
			}
		}
	}
	return out
}

// checkBits fails unless got equals want bit for bit and is sorted.
func checkBits(t *testing.T, what string, got, want *sparse.SpVec) {
	t.Helper()
	if !got.Sorted {
		t.Errorf("%s: result not sorted", what)
	}
	if got.N != want.N || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: got n=%d nnz=%d, want n=%d nnz=%d", what, got.N, got.NNZ(), want.N, want.NNZ())
	}
	for k := range want.Ind {
		if got.Ind[k] != want.Ind[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d got (%d, %g), want (%d, %g)", what, k, got.Ind[k], got.Val[k], want.Ind[k], want.Val[k])
		}
	}
}

func noMult(int, string, *sparse.Frontier, engine.Desc) (*sparse.Frontier, error) {
	panic("dataflow test: unexpected multiply")
}

// TestVectorOpsOnUnsortedOperands runs union, axpy and ewise_mult on
// unsorted literals (with duplicates, a signed zero and a NaN) and
// checks each emitted result against the dense restatement, bit for
// bit, and leaves the operand registers untouched.
func TestVectorOpsOnUnsortedOperands(t *testing.T) {
	const n = 12
	negZero := math.Copysign(0, -1)
	xInd, xVal := []sparse.Index{9, 2, 7, 2, 0}, []float64{1.5, negZero, math.NaN(), 4, -3}
	yInd, yVal := []sparse.Index{7, 11, 2, 5, 9}, []float64{2, 8, negZero, 1, -1.5}
	x := &sparse.SpVec{N: n, Ind: xInd, Val: xVal}
	y := &sparse.SpVec{N: n, Ind: yInd, Val: yVal}
	minus := func(a, b float64) float64 { return a - b }
	const alpha = -0.5

	union, axpy, mult := op(KUnion), op(KAxpy), op(KEwiseMult)
	union.XRef, union.YRef, union.Emit = 0, 1, true
	axpy.XRef, axpy.YRef, axpy.Alpha, axpy.Emit = 0, 1, alpha, true
	mult.XRef, mult.YRef, mult.Mul, mult.Emit = 1, 0, minus, true
	p := &Program{Ops: []Instr{
		literal(n, append([]sparse.Index(nil), xInd...), append([]float64(nil), xVal...)),
		literal(n, append([]sparse.Index(nil), yInd...), append([]float64(nil), yVal...)),
		union, axpy, mult,
	}}
	res, err := p.Exec(Env{Mult: noMult})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emits) != 3 {
		t.Fatalf("got %d emits, want 3", len(res.Emits))
	}
	plus := func(a, b float64) float64 { return a + b }
	scaled := x.Clone()
	for k := range scaled.Val {
		scaled.Val[k] *= alpha
	}
	checkBits(t, "union", res.Emits[0].V.F.List(), denseUnion(x, y, plus))
	checkBits(t, "axpy", res.Emits[1].V.F.List(), denseUnion(scaled, y, plus))
	checkBits(t, "ewise_mult", res.Emits[2].V.F.List(), denseIntersect(y, x, minus))
	for k, want := range []*sparse.SpVec{x, y} {
		got := p.Ops[k].X
		if got.Sorted {
			t.Fatalf("operand %d was sorted in place", k)
		}
		for e := range want.Ind {
			if got.Ind[e] != want.Ind[e] || math.Float64bits(got.Val[e]) != math.Float64bits(want.Val[e]) {
				t.Fatalf("operand %d was modified", k)
			}
		}
	}
}

// TestBFSLoopWithUnsortedLevels runs the stored BFS program's shape — a
// loop carrying (frontier, visited), a complement-masked multiply, a
// union into visited and an indices op — under a fake multiply that
// returns each level in descending, unsorted order. The emitted levels
// and the final visited set must match a plain BFS.
func TestBFSLoopWithUnsortedLevels(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(3))
	adj := make([][]sparse.Index, n)
	for range 3 * n / 2 {
		u, v := sparse.Index(rng.Intn(n)), sparse.Index(rng.Intn(n))
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	const source = 17

	// The (min, select2nd) masked step: y(v) = min parent id over the
	// frontier's neighbors of v outside the mask, emitted high to low.
	mult := func(_ int, _ string, xf *sparse.Frontier, d engine.Desc) (*sparse.Frontier, error) {
		if !d.Complement || d.Mask == nil {
			t.Fatal("multiply without the complemented visited mask")
		}
		parent := make(map[sparse.Index]float64)
		x := xf.List()
		for k, u := range x.Ind {
			for _, v := range adj[u] {
				if d.Mask.Test(v) {
					continue
				}
				if p, ok := parent[v]; !ok || x.Val[k] < p {
					parent[v] = x.Val[k]
				}
			}
		}
		y := sparse.NewSpVec(n, len(parent))
		for v := sparse.Index(n - 1); v >= 0; v-- {
			if p, ok := parent[v]; ok {
				y.Append(v, p)
			}
		}
		y.Sorted = false
		return sparse.NewFrontier(y), nil
	}

	step, union, next := op(KMult), op(KUnion), op(KIndices)
	step.XRef, step.MaskRef, step.Desc, step.Emit = CarryRef(0), CarryRef(1), engine.Desc{Complement: true}, true
	union.XRef, union.YRef, union.Emit = CarryRef(1), 0, true
	next.XRef = 0
	loop := op(KLoop)
	loop.Body = []Instr{step, union, next}
	loop.MaxIters = n
	loop.Carry = []int{0, 0}
	loop.Update = []int{2, 1}
	loop.UntilEmpty = 0
	p := &Program{Ops: []Instr{
		literal(n, []sparse.Index{source}, []float64{source}),
		loop,
	}}
	res, err := p.Exec(Env{Mult: mult})
	if err != nil {
		t.Fatal(err)
	}

	// Reference BFS: levels and min-id parents, level by level.
	level := make([]int, n)
	parent := make([]float64, n)
	for i := range level {
		level[i] = -1
	}
	level[source], parent[source] = 0, source
	for frontier, d := []sparse.Index{source}, 1; len(frontier) > 0; d++ {
		var nextFrontier []sparse.Index
		for _, u := range frontier {
			for _, v := range adj[u] {
				if level[v] == -1 {
					level[v], parent[v] = d, float64(u)
					nextFrontier = append(nextFrontier, v)
				} else if level[v] == d && float64(u) < parent[v] {
					parent[v] = float64(u)
				}
			}
		}
		frontier = nextFrontier
	}

	var visited *sparse.SpVec
	levels := 0
	for _, e := range res.Emits {
		got := e.V.F.List()
		if e.BodyOp == 1 {
			visited = got
			continue
		}
		levels++
		if got.NNZ() == 0 {
			continue
		}
		for k, v := range got.Ind {
			if level[v] != e.Iter || got.Val[k] != parent[v] {
				t.Fatalf("iteration %d emitted (%d, %g); want level %d parent %g", e.Iter, v, got.Val[k], level[v], parent[v])
			}
		}
	}
	want := sparse.NewSpVec(n, 0)
	depth := 0
	for v := sparse.Index(0); v < n; v++ {
		if level[v] >= 0 {
			want.Append(v, parent[v])
			depth = max(depth, level[v])
		}
	}
	if levels != depth+1 {
		t.Errorf("ran %d levels, want %d (depth %d plus the empty one)", levels, depth+1, depth)
	}
	checkBits(t, "visited", visited, want)
}
