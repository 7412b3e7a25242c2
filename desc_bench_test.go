// Benchmarks pinning the descriptor API's overhead: Mult with a
// list-output Desc must be within noise of the bare list primitive
// MultiplyInto — the plan cache moves capability negotiation off the
// hot path, so the descriptor indirection costs one map load per call
// (or nothing, holding the Plan).
package spmspv_test

import (
	"testing"

	spmspv "spmspv"
)

func benchSetup(b *testing.B) (*spmspv.Multiplier, *spmspv.Vector, *spmspv.BitVector) {
	b.Helper()
	a := spmspv.RMAT(spmspv.DefaultRMAT(13), 7)
	mu, err := spmspv.NewMultiplier(a, spmspv.WithSortOutput(true))
	if err != nil {
		b.Fatal(err)
	}
	x := spmspv.NewVector(a.NumCols, 0)
	for i := spmspv.Index(0); i < a.NumCols; i += 16 {
		x.Append(i, float64(i))
	}
	mask := spmspv.NewBitVector(a.NumRows)
	sel := spmspv.NewVector(a.NumRows, 0)
	for i := spmspv.Index(0); i < a.NumRows; i += 2 {
		sel.Append(i, 1)
	}
	mask.SetFrom(sel)
	return mu, x, mask
}

// BenchmarkMultVsLegacy compares the descriptor-driven entry point, in
// its list, auto-output and masked shapes, against the bare list
// primitive MultiplyInto.
func BenchmarkMultVsLegacy(b *testing.B) {
	mu, x, mask := benchSetup(b)
	n := x.N

	b.Run("legacy/MultiplyInto", func(b *testing.B) {
		y := spmspv.NewVector(0, 0)
		for i := 0; i < b.N; i++ {
			mu.MultiplyInto(x, y, spmspv.MinSelect2nd)
		}
	})
	b.Run("Mult/list", func(b *testing.B) {
		xf, yf := spmspv.NewFrontier(x), spmspv.NewOutputFrontier(n)
		d := spmspv.Desc{Output: spmspv.OutputList}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Mult(xf, yf, spmspv.MinSelect2nd, d)
		}
	})
	b.Run("Mult/auto", func(b *testing.B) {
		xf, yf := spmspv.NewFrontier(x), spmspv.NewOutputFrontier(n)
		d := spmspv.Desc{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Mult(xf, yf, spmspv.MinSelect2nd, d)
		}
	})
	b.Run("Mult/masked", func(b *testing.B) {
		xf, yf := spmspv.NewFrontier(x), spmspv.NewOutputFrontier(n)
		d := spmspv.Desc{Mask: mask, Complement: true, Output: spmspv.OutputList}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Mult(xf, yf, spmspv.MinSelect2nd, d)
		}
	})
	b.Run("Plan/list", func(b *testing.B) {
		// Holding the compiled plan removes even the per-call shape map
		// load — the loop form internal/algorithms uses.
		xf, yf := spmspv.NewFrontier(x), spmspv.NewOutputFrontier(n)
		d := spmspv.Desc{Output: spmspv.OutputList}
		plan := mu.Plan(d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Mult(xf, yf, spmspv.MinSelect2nd, d)
		}
	})
}
