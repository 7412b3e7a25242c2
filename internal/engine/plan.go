package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// planCompilations counts CompilePlan invocations process-wide. Tests
// (and capacity audits) read it to pin that plan caching actually
// works: a warm Multiplier served from a matrix store must answer
// repeat requests with zero new compilations.
var planCompilations atomic.Int64

// PlanCompilations returns the process-wide count of CompilePlan calls.
func PlanCompilations() int64 { return planCompilations.Load() }

// Plan is a compiled execution strategy for one (engine, Shape) pair:
// the capability negotiation — which of the optional Engine extensions
// (FrontierEngine, MaskedEngine, OutputEngine, MaskedOutputEngine,
// BatchEngine, BatchOutputEngine) the engine implements, and how to
// degrade when it doesn't — resolved ONCE, at compile time, into
// closures the hot path invokes with no per-call type assertions.
//
// Iterative algorithms compile the plan for their loop's shape before
// the loop and call Mult/MultBatch per iteration; the public facade
// caches one plan per shape on the Multiplier so arbitrary Desc-driven
// callers get the same amortization.
//
// A Plan is immutable after compilation and safe for concurrent use
// (its scratch pool is a sync.Pool).
type Plan struct {
	shape Shape
	e     Engine

	// runUnmasked / runMasked are the single-call executors; MultBatch
	// uses runBatch. All three are resolved at compile time.
	runUnmasked func(x, y *sparse.Frontier, sr semiring.Semiring)
	runMasked   func(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool)
	runBatch    func(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement bool)

	// scratch pools *sparse.SpVec buffers for the accumulate wrapper.
	scratch sync.Pool
}

// Shape returns the shape the plan was compiled for.
func (p *Plan) Shape() Shape { return p.shape }

// Engine returns the engine the plan drives.
func (p *Plan) Engine() Engine { return p.e }

// Mult executes one multiply through the plan: y ← ⟨A·x, d.Mask⟩ over
// sr, accumulated or overwritten and represented per the compiled
// shape. d must project to the plan's shape (Plan dispatch is resolved
// at compile time; a mismatched descriptor is a programming error and
// panics).
func (p *Plan) Mult(x, y *sparse.Frontier, sr semiring.Semiring, d Desc) {
	if s := d.Shape(); s != p.shape {
		panic(fmt.Sprintf("engine: Plan compiled for shape %+v called with descriptor shape %+v", p.shape, s))
	}
	if d.Masks != nil {
		// Silently running unmasked (or picking an arbitrary slot) would
		// hand back an unfiltered product the caller believes is masked.
		panic("engine: Mult with Desc.Masks (per-slot masks are MultBatch-only; use Desc.Mask)")
	}
	if d.Mask != nil {
		p.runMasked(x, y, sr, d.Mask, d.Complement)
		return
	}
	p.runUnmasked(x, y, sr)
}

// MultBatch executes a batched multiply through the plan:
// ys[q] ← ⟨A·xs[q], mask_q⟩ for every q, where mask_q comes from
// d.Masks (per slot) or d.Mask (shared). Results are exactly those of
// the equivalent loop of Mult calls; engines with a native batch path
// amortize their per-call setup across the slots.
func (p *Plan) MultBatch(xs, ys []*sparse.Frontier, sr semiring.Semiring, d Desc) {
	if s := d.Shape(); s != p.shape {
		panic(fmt.Sprintf("engine: Plan compiled for shape %+v called with descriptor shape %+v", p.shape, s))
	}
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("engine: MultBatch with %d inputs but %d outputs", len(xs), len(ys)))
	}
	if d.BatchWidth > 0 && d.BatchWidth != len(xs) {
		panic(fmt.Sprintf("engine: MultBatch with %d inputs but Desc.BatchWidth %d", len(xs), d.BatchWidth))
	}
	masks := d.batchMasks(len(xs))
	if masks != nil && len(masks) != len(xs) {
		panic(fmt.Sprintf("engine: MultBatch with %d inputs but %d masks", len(xs), len(masks)))
	}
	p.runBatch(xs, ys, sr, masks, d.Complement)
}

// getVec / putVec recycle accumulate scratch vectors.
func (p *Plan) getVec() *sparse.SpVec {
	if v, ok := p.scratch.Get().(*sparse.SpVec); ok {
		return v
	}
	return sparse.NewSpVec(0, 0)
}

func (p *Plan) putVec(v *sparse.SpVec) { p.scratch.Put(v) }

// PlanCache is implemented by engine handles that keep compiled plans
// across calls, such as the public Multiplier, which caches one plan per
// descriptor shape. An iterative algorithm handed such an engine reuses
// the handle's plan instead of compiling its own for every run.
type PlanCache interface {
	CachedPlan(s Shape) *Plan
}

// PlanFor returns the plan for e at shape s: the cached one when e is a
// PlanCache, else a freshly compiled one.
func PlanFor(e Engine, s Shape) *Plan {
	if c, ok := e.(PlanCache); ok {
		return c.CachedPlan(s)
	}
	return CompilePlan(e, s)
}

// CompilePlan resolves the capability dispatch for e at shape s. The
// returned plan is the shape's entire execution strategy; nothing about
// e is re-discovered per call.
func CompilePlan(e Engine, s Shape) *Plan {
	planCompilations.Add(1)
	p := &Plan{shape: s, e: e}

	// Capability probe — the type assertions that used to run per call,
	// run once here.
	fe, _ := e.(FrontierEngine)
	me, _ := e.(MaskedEngine)
	oe, _ := e.(OutputEngine)
	moe, _ := e.(MaskedOutputEngine)
	be, _ := e.(BatchEngine)
	boe, _ := e.(BatchOutputEngine)

	// listMult: frontier-in, list-out, unmasked — the primitive every
	// degradation path bottoms out in.
	listMult := func(x *sparse.Frontier, y *sparse.SpVec, sr semiring.Semiring) {
		e.Multiply(x.List(), y, sr)
	}
	if fe != nil {
		listMult = fe.MultiplyFrontier
	}
	// maskedListMult: frontier-in, list-out, masked — native pushdown
	// when the engine has it, multiply-then-filter otherwise.
	maskedListMult := func(x *sparse.Frontier, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
		listMult(x, y, sr)
		sparse.FilterMaskInPlace(y, mask, complement)
	}
	if me != nil {
		maskedListMult = func(x *sparse.Frontier, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
			me.MultiplyMasked(x.List(), y, sr, mask, complement)
		}
	}

	// listInto / maskedListInto: the list-only frontier-output paths
	// (bitmap stays lazy).
	listInto := func(x, y *sparse.Frontier, sr semiring.Semiring) {
		list := y.BeginOutput()
		listMult(x, list, sr)
		y.FinishOutput(false)
	}
	maskedListInto := func(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
		list := y.BeginOutput()
		maskedListMult(x, list, sr, mask, complement)
		y.FinishOutput(false)
	}

	// autoInto / maskedAutoInto: richest native representation.
	autoInto := listInto
	if oe != nil {
		autoInto = oe.MultiplyInto
	}
	maskedAutoInto := maskedListInto
	if moe != nil {
		maskedAutoInto = moe.MultiplyIntoMasked
	}

	// Single-call executors by requested representation.
	switch s.Output {
	case OutputList:
		p.runUnmasked = listInto
		p.runMasked = maskedListInto
	case OutputBitmap:
		inner, maskedInner := autoInto, maskedAutoInto
		p.runUnmasked = func(x, y *sparse.Frontier, sr semiring.Semiring) {
			inner(x, y, sr)
			y.Materialize()
		}
		p.runMasked = func(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
			maskedInner(x, y, sr, mask, complement)
			y.Materialize()
		}
	default: // OutputAuto
		p.runUnmasked = autoInto
		p.runMasked = maskedAutoInto
	}

	// Accumulate wraps the executors: product into pooled scratch, then
	// a sorted-merge union with the output's prior contents (an unsorted
	// product is stably sorted first).
	// The union invalidates any bitmap, so accumulated outputs are
	// list-form; OutputBitmap still guarantees the bitmap by a counted
	// materialization afterwards.
	if s.Accum {
		accum := func(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool) {
			prod := p.getVec()
			if mask != nil {
				maskedListMult(x, prod, sr, mask, complement)
			} else {
				listMult(x, prod, sr)
			}
			acc := p.getVec()
			list := y.BeginOutput()
			// Swap the output's prior contents into the scratch
			// accumulator so the union can be written back in place.
			*acc, *list = *list, *acc
			if acc.NNZ() == 0 {
				acc.Reset(prod.N)
			}
			sparse.EwiseAddInto(list, prod, acc, sr.Add)
			y.FinishOutput(false)
			if s.Output == OutputBitmap {
				y.Materialize()
			}
			p.putVec(prod)
			p.putVec(acc)
		}
		p.runUnmasked = func(x, y *sparse.Frontier, sr semiring.Semiring) {
			accum(x, y, sr, nil, false)
		}
		p.runMasked = accum
	}

	// listBatch: list-in list-out batch through the engine's native
	// batch path (or a Multiply loop).
	listBatch := func(xl, yl []*sparse.SpVec, sr semiring.Semiring) {
		if be != nil {
			be.MultiplyBatch(xl, yl, sr)
			return
		}
		for q := range xl {
			e.Multiply(xl[q], yl[q], sr)
		}
	}
	// listBatchInto runs the whole batch through the list-only frontier
	// path: one native batch call, bitmaps lazy.
	listBatchInto := func(xs, ys []*sparse.Frontier, sr semiring.Semiring) {
		xl := make([]*sparse.SpVec, len(xs))
		yl := make([]*sparse.SpVec, len(ys))
		for q := range xs {
			xl[q] = xs[q].List()
			yl[q] = ys[q].BeginOutput()
		}
		listBatch(xl, yl, sr)
		for q := range ys {
			ys[q].FinishOutput(false)
		}
	}
	// slotLoop degrades a batch to per-slot single executions — the
	// path for shapes (accumulate, forced list with masks) whose batch
	// semantics are exactly the loop.
	slotLoop := func(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement bool) {
		for q := range xs {
			if masks != nil && masks[q] != nil {
				p.runMasked(xs[q], ys[q], sr, masks[q], complement)
			} else {
				p.runUnmasked(xs[q], ys[q], sr)
			}
		}
	}

	switch {
	case s.Accum:
		p.runBatch = slotLoop
	case s.Output == OutputList:
		p.runBatch = func(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement bool) {
			if masks == nil {
				listBatchInto(xs, ys, sr)
				return
			}
			slotLoop(xs, ys, sr, masks, complement)
		}
	default: // OutputAuto / OutputBitmap
		inner := func(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement bool) {
			switch {
			case masks == nil && boe != nil:
				boe.MultiplyBatchInto(xs, ys, sr)
			case masks == nil:
				listBatchInto(xs, ys, sr)
			case boe != nil:
				boe.MultiplyBatchIntoMasked(xs, ys, sr, masks, complement)
			default:
				slotLoop(xs, ys, sr, masks, complement)
			}
		}
		if s.Output == OutputBitmap {
			p.runBatch = func(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement bool) {
				inner(xs, ys, sr, masks, complement)
				for _, y := range ys {
					y.Materialize()
				}
			}
		} else {
			p.runBatch = inner
		}
	}
	return p
}
