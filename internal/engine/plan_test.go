package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spmspv/internal/core"
	"spmspv/internal/engine"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// listOnly hides every optional extension of the engine it wraps: its
// method set is exactly engine.Engine, so CompilePlan must serve masks,
// frontier outputs and batches through its degradation paths.
type listOnly struct{ engine.Engine }

// cached is an engine handle that keeps one plan, as the public
// Multiplier does per shape.
type cached struct {
	engine.Engine
	plan *engine.Plan
}

func (c cached) CachedPlan(engine.Shape) *engine.Plan { return c.plan }

func TestCompilePlanCountsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := testutil.RandomCSC(rng, 100, 100, 4)
	e := core.NewMultiplier(a, core.Options{})
	x := sparse.NewFrontier(testutil.RandomVector(rng, 100, 10, true))
	y := sparse.NewOutputFrontier(100)

	before := engine.PlanCompilations()
	p := engine.CompilePlan(e, engine.Desc{}.Shape())
	if d := engine.PlanCompilations() - before; d != 1 {
		t.Fatalf("CompilePlan counted %d compilations, want 1", d)
	}
	for i := 0; i < 3; i++ {
		p.Mult(x, y, semiring.Arithmetic, engine.Desc{})
	}
	if d := engine.PlanCompilations() - before; d != 1 {
		t.Errorf("running a compiled plan counted %d compilations in all, want 1", d)
	}

	// PlanFor compiles for a bare engine and reuses a cached plan.
	before = engine.PlanCompilations()
	engine.PlanFor(e, engine.Desc{}.Shape())
	if d := engine.PlanCompilations() - before; d != 1 {
		t.Errorf("PlanFor on a bare engine counted %d compilations, want 1", d)
	}
	before = engine.PlanCompilations()
	if got := engine.PlanFor(cached{e, p}, engine.Desc{}.Shape()); got != p {
		t.Error("PlanFor did not return the engine's cached plan")
	}
	if d := engine.PlanCompilations() - before; d != 0 {
		t.Errorf("PlanFor on a plan cache counted %d compilations, want 0", d)
	}
}

// TestListOnlyPlansMatchNative checks every single-call shape and the
// masked batch: on a list-only engine the plan degrades to
// multiply-then-filter (and a counted bitmap build), and the result
// must be bit-identical to the bucket engine's native pushdown plan,
// list and bitmap alike.
func TestListOnlyPlansMatchNative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 300
	a := testutil.RandomCSC(rng, n, n, 5)
	native := core.NewMultiplier(a, core.Options{Threads: 2, SortOutput: true})
	degraded := listOnly{core.NewMultiplier(a, core.Options{Threads: 2, SortOutput: true})}
	if _, ok := engine.Engine(degraded).(engine.MaskedEngine); ok {
		t.Fatal("listOnly must not expose the masked extension")
	}

	xs := make([]*sparse.SpVec, 3)
	for q := range xs {
		xs[q] = testutil.RandomVector(rng, n, 20+40*q, true)
	}
	mask := sparse.NewBitVec(n)
	mask.SetFrom(testutil.RandomVector(rng, n, n/3, true))
	prior := testutil.RandomVector(rng, n, 25, true)

	var descs []engine.Desc
	for _, out := range []engine.OutputMode{engine.OutputAuto, engine.OutputList, engine.OutputBitmap} {
		for _, accum := range []bool{false, true} {
			descs = append(descs,
				engine.Desc{Output: out, Accum: accum},
				engine.Desc{Output: out, Accum: accum, Mask: mask},
				engine.Desc{Output: out, Accum: accum, Mask: mask, Complement: true})
		}
	}
	for _, d := range descs {
		label := fmt.Sprintf("output=%v accum=%v masked=%v complement=%v", d.Output, d.Accum, d.Mask != nil, d.Complement)
		pn := engine.CompilePlan(native, d.Shape())
		pd := engine.CompilePlan(degraded, d.Shape())
		for q, x := range xs {
			yn, yd := outputWith(prior, d.Accum), outputWith(prior, d.Accum)
			pn.Mult(sparse.NewFrontier(x), yn, semiring.Arithmetic, d)
			pd.Mult(sparse.NewFrontier(x), yd, semiring.Arithmetic, d)
			if d.Output == engine.OutputBitmap && (!yn.HasBits() || !yd.HasBits()) {
				t.Fatalf("%s x%d: OutputBitmap result without a bitmap", label, q)
			}
			requireSameFrontier(t, fmt.Sprintf("%s x%d", label, q), yn, yd)
		}
	}

	// Per-slot masks (one slot unmasked): the native batched pushdown
	// against the list-only engine's per-slot loop.
	masks := []*sparse.BitVec{mask, nil, mask}
	for _, out := range []engine.OutputMode{engine.OutputAuto, engine.OutputList, engine.OutputBitmap} {
		d := engine.Desc{Output: out, Masks: masks, Complement: true}
		yn, yd := outputs(len(xs)), outputs(len(xs))
		engine.CompilePlan(native, d.Shape()).MultBatch(frontiers(xs), yn, semiring.Arithmetic, d)
		engine.CompilePlan(degraded, d.Shape()).MultBatch(frontiers(xs), yd, semiring.Arithmetic, d)
		for q := range xs {
			requireSameFrontier(t, fmt.Sprintf("batch output=%v slot %d", out, q), yn[q], yd[q])
		}
	}
}

// outputWith returns an output frontier, holding a copy of prior when
// the multiply accumulates into it.
func outputWith(prior *sparse.SpVec, accum bool) *sparse.Frontier {
	y := sparse.NewOutputFrontier(prior.N)
	if accum {
		y.SetList(prior.Clone())
	}
	return y
}

func frontiers(xs []*sparse.SpVec) []*sparse.Frontier {
	fs := make([]*sparse.Frontier, len(xs))
	for q, x := range xs {
		fs[q] = sparse.NewFrontier(x)
	}
	return fs
}

func outputs(k int) []*sparse.Frontier {
	ys := make([]*sparse.Frontier, k)
	for q := range ys {
		ys[q] = sparse.NewOutputFrontier(0)
	}
	return ys
}

// requireSameFrontier compares two results entry by entry, bits and
// all, and their bitmaps row by row (building a missing bitmap from the
// list).
func requireSameFrontier(t *testing.T, label string, want, got *sparse.Frontier) {
	t.Helper()
	wl, gl := want.List(), got.List()
	if wl.NNZ() != gl.NNZ() {
		t.Fatalf("%s: nnz %d, want %d", label, gl.NNZ(), wl.NNZ())
	}
	for k := range wl.Ind {
		if gl.Ind[k] != wl.Ind[k] || gl.Val[k] != wl.Val[k] {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", label, k, gl.Ind[k], gl.Val[k], wl.Ind[k], wl.Val[k])
		}
	}
	wb, gb := want.Bits(), got.Bits()
	for i := sparse.Index(0); i < wl.N; i++ {
		wv, wok := wb.Get(i)
		gv, gok := gb.Get(i)
		if wok != gok || wv != gv {
			t.Fatalf("%s: bitmap row %d = (%v, %x), want (%v, %x)", label, i, gok, gv, wok, wv)
		}
	}
}
