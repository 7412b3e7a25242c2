package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spmspv/internal/baselines"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
	"spmspv/internal/testutil"
)

// TestSizingBitIdentical pins that sizing the kernel to its work
// changes how a multiply is scheduled, never its bits: on random
// matrices with frontiers whose df falls on both sides of the grain,
// Multiply, MultiplyMasked and MultiplyBatch (masked and unmasked) at
// 1, 2 and 4 threads agree exactly with each other and with the
// sequential reference, for sorted and unsorted output. Every row
// accumulates in x order whether one bucket or many hold it, so even
// floating-point sums match bit for bit.
func TestSizingBitIdentical(t *testing.T) {
	const grain = 256
	defer setGrain(grain)()
	rng := rand.New(rand.NewSource(41))
	srs := []semiring.Semiring{semiring.Arithmetic, semiring.MinSelect2nd}
	for trial := 0; trial < 8; trial++ {
		m := sparse.Index(20 + rng.Intn(1200))
		n := sparse.Index(200 + rng.Intn(1000))
		a := testutil.RandomCSC(rng, m, n, 6+4*rng.Float64())

		// Frontiers from a single column up to all of them, so df
		// straddles every sizing threshold (grain·{1, 2, 4}).
		var xs []*sparse.SpVec
		var below, above bool
		for _, f := range []int{1, 3, int(n) / 20, int(n) / 4, int(n)} {
			x := testutil.RandomVector(rng, n, max(f, 1), rng.Intn(2) == 0)
			df := frontierWork(a, x)
			below = below || df < 2*grain
			above = above || df >= 4*grain
			xs = append(xs, x)
		}
		if !below || !above {
			t.Fatalf("trial %d: frontiers do not straddle the grain", trial)
		}
		mask := testutil.RandomVector(rng, m, int(m)/3, true)
		bits := sparse.NewBitVec(m)
		bits.SetFrom(mask)
		complement := trial%2 == 1
		masks := make([]*sparse.BitVec, len(xs))
		for q := range masks {
			masks[q] = bits
		}

		for _, sr := range srs {
			want := make([]*sparse.SpVec, len(xs))
			wantMasked := make([]*sparse.SpVec, len(xs))
			for q, x := range xs {
				want[q] = baselines.Reference(a, x, sr)
				wantMasked[q] = sparse.FilterMask(want[q], bits, complement)
			}
			for _, threads := range []int{1, 2, 4} {
				for _, sorted := range []bool{false, true} {
					label := fmt.Sprintf("trial %d %dx%d sr=%s t=%d sorted=%v", trial, m, n, sr.Name, threads, sorted)
					opt := Options{Threads: threads, SortOutput: sorted}
					mu := NewMultiplier(a, opt)
					ys := newVecs(len(xs))
					mu.MultiplyBatch(xs, ys, sr)
					ysMasked := newVecs(len(xs))
					mu.multiplyBatchLists(xs, ysMasked, sr, masks, complement, nil)
					ws := NewWorkspace(0, 0)
					for q, x := range xs {
						y := sparse.NewSpVec(0, 0)
						Multiply(a, x, y, sr, ws, opt)
						ym := sparse.NewSpVec(0, 0)
						MultiplyMasked(a, x, ym, sr, bits, complement, ws, opt)
						fq := fmt.Sprintf("%s f=%d", label, x.NNZ())
						requireSameBits(t, fq+" Multiply", want[q], y, sorted)
						requireSameBits(t, fq+" MultiplyBatch", want[q], ys[q], sorted)
						requireSameBits(t, fq+" MultiplyMasked", wantMasked[q], ym, sorted)
						requireSameBits(t, fq+" masked MultiplyBatch", wantMasked[q], ysMasked[q], sorted)
					}
				}
			}
		}
	}
}

func newVecs(k int) []*sparse.SpVec {
	vs := make([]*sparse.SpVec, k)
	for q := range vs {
		vs[q] = sparse.NewSpVec(0, 0)
	}
	return vs
}

// requireSameBits compares got with the sorted reference want exactly.
// Sorted output must arrive sorted; unsorted output is compared as a
// set after sorting a copy.
func requireSameBits(t *testing.T, label string, want, got *sparse.SpVec, sorted bool) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: dimension %d, want %d", label, got.N, want.N)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid output: %v", label, err)
	}
	if sorted {
		if !got.Sorted {
			t.Fatalf("%s: SortOutput set but output not marked sorted", label)
		}
	} else {
		got = got.Clone()
		got.Sort()
	}
	requireBitIdentical(t, label, want, got)
}

// setGrain sets kernelGrain for one test or benchmark and returns the
// function that restores it.
func setGrain(g int64) func() {
	old := kernelGrain
	kernelGrain = g
	return func() { kernelGrain = old }
}
