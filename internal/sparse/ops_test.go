package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// ewiseAddMap is the map-and-sort union EwiseAddInto ran on unsorted
// operands before the linear merge replaced it, kept as the oracle the
// merge must match bit for bit: each index folds a's entries in input
// order, then b's, with add(old, new).
func ewiseAddMap(a, b *SpVec, add func(x, y float64) float64) *SpVec {
	if add == nil {
		add = func(x, y float64) float64 { return x + y }
	}
	acc := make(map[Index]float64, a.NNZ()+b.NNZ())
	for _, v := range []*SpVec{a, b} {
		for k, i := range v.Ind {
			if old, ok := acc[i]; ok {
				acc[i] = add(old, v.Val[k])
			} else {
				acc[i] = v.Val[k]
			}
		}
	}
	out := NewSpVec(a.N, len(acc))
	for i := range acc {
		out.Ind = append(out.Ind, i)
	}
	sort.Slice(out.Ind, func(x, y int) bool { return out.Ind[x] < out.Ind[y] })
	for _, i := range out.Ind {
		out.Val = append(out.Val, acc[i])
	}
	return out
}

// ewiseMultMap is the map-based intersection EwiseMult ran before the
// two-pointer pass: b's last entry per index, probed by each entry of a
// in input order, then a stable sort.
func ewiseMultMap(a, b *SpVec, mul func(x, y float64) float64) *SpVec {
	if mul == nil {
		mul = func(x, y float64) float64 { return x * y }
	}
	bv := make(map[Index]float64, b.NNZ())
	for k, i := range b.Ind {
		bv[i] = b.Val[k]
	}
	out := NewSpVec(a.N, min(a.NNZ(), b.NNZ()))
	for k, i := range a.Ind {
		if y, ok := bv[i]; ok {
			out.Append(i, mul(a.Val[k], y))
		}
	}
	out.Sort()
	return out
}

// sameBits reports the first difference between got and want — length,
// index, value bits (so ±0 and NaN payloads count), dimension or the
// Sorted flag — or "" when they are bit-identical.
func sameBits(got, want *SpVec) string {
	if got.N != want.N || got.Sorted != want.Sorted || got.NNZ() != want.NNZ() {
		return fmt.Sprintf("shape: got n=%d sorted=%v nnz=%d, want n=%d sorted=%v nnz=%d",
			got.N, got.Sorted, got.NNZ(), want.N, want.Sorted, want.NNZ())
	}
	for k := range want.Ind {
		if got.Ind[k] != want.Ind[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Sprintf("entry %d: got (%d, %#x), want (%d, %#x)", k,
				got.Ind[k], math.Float64bits(got.Val[k]), want.Ind[k], math.Float64bits(want.Val[k]))
		}
	}
	return ""
}

// fuzzValues are the values fuzzed operands draw from: signed zeros,
// NaNs with distinct payloads and signs, infinities and ordinary
// numbers, so a changed fold order or operand order shows in the bits.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 3, -2.5, 1e308,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff8000000dead00),
	math.Float64frombits(0x7ff80000000beef0),
}

// fuzzOperand decodes data as (index, value) byte pairs into a vector of
// dimension n; sorted operands are stably ordered by index (duplicates
// keep their input order), unsorted ones keep input order.
func fuzzOperand(n Index, data []byte, sorted bool) *SpVec {
	v := NewSpVec(n, len(data)/2)
	for k := 0; k+1 < len(data); k += 2 {
		v.Ind = append(v.Ind, Index(data[k])%n)
		v.Val = append(v.Val, fuzzValues[int(data[k+1])%len(fuzzValues)])
	}
	v.Sorted = false
	if sorted {
		v.Sort()
	}
	return v
}

// FuzzEwiseAdd pins the linear-merge union (and the two-pointer
// intersection) bit-identical to the map oracles over sorted and
// unsorted operands with duplicates, ±0 and NaN payloads, under a
// commutative and a non-commutative combiner. Run the seeds with
// `go test`; explore with `go test -run=NONE -fuzz=FuzzEwiseAdd`.
func FuzzEwiseAdd(f *testing.F) {
	f.Add(uint8(10), false, true, false, []byte{1, 2, 5, 3}, []byte{5, 4, 7, 1})
	f.Add(uint8(7), true, false, true, []byte{3, 10, 3, 11, 0, 1}, []byte{3, 12, 6, 0, 3, 1})
	f.Add(uint8(64), false, false, false, []byte{9, 0, 9, 1, 2, 12}, []byte{2, 11, 9, 10})
	f.Add(uint8(1), true, true, true, []byte{}, []byte{0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, n uint8, aSorted, bSorted, ordered bool, ad, bd []byte) {
		dim := Index(n) + 1
		a, b := fuzzOperand(dim, ad, aSorted), fuzzOperand(dim, bd, bSorted)
		var add, mul func(x, y float64) float64
		if ordered {
			add = func(x, y float64) float64 { return 2*x - y }
			mul = func(x, y float64) float64 { return x/2 - y }
		}
		ac, bc := a.Clone(), b.Clone()
		dst := vecOf(dim, 0, 42) // stale contents must not leak
		EwiseAddInto(dst, a, b, add)
		if d := sameBits(dst, ewiseAddMap(a, b, add)); d != "" {
			t.Fatalf("EwiseAddInto differs from the map oracle: %s", d)
		}
		if d := sameBits(EwiseMult(a, b, mul), ewiseMultMap(a, b, mul)); d != "" {
			t.Fatalf("EwiseMult differs from the map oracle: %s", d)
		}
		if sameBits(a, ac) != "" || sameBits(b, bc) != "" {
			t.Fatal("operands were modified")
		}
	})
}

func vecOf(n Index, pairs ...float64) *SpVec {
	v := NewSpVec(n, len(pairs)/2)
	for k := 0; k+1 < len(pairs); k += 2 {
		v.Append(Index(pairs[k]), pairs[k+1])
	}
	return v
}

func TestEwiseAdd(t *testing.T) {
	a := vecOf(10, 1, 2, 5, 3)
	b := vecOf(10, 5, 4, 7, 1)
	out := EwiseAdd(a, b, nil)
	want := vecOf(10, 1, 2, 5, 7, 7, 1)
	if !out.EqualValues(want, 0) {
		t.Errorf("EwiseAdd = %v %v", out.Ind, out.Val)
	}
	if !out.Sorted {
		t.Error("EwiseAdd output not sorted")
	}
}

func TestEwiseAddCommutes(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := Index(r.Intn(100) + 1)
		a := randomVec(r, n)
		b := randomVec(r, n)
		ab := EwiseAdd(a, b, nil)
		ba := EwiseAdd(b, a, nil)
		return ab.EqualValues(ba, 1e-12)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomVec(r *rand.Rand, n Index) *SpVec {
	v := NewSpVec(n, 0)
	for i := Index(0); i < n; i++ {
		if r.Float64() < 0.3 {
			v.Append(i, r.NormFloat64())
		}
	}
	return v
}

func TestEwiseMult(t *testing.T) {
	a := vecOf(10, 1, 2, 5, 3, 8, 2)
	b := vecOf(10, 5, 4, 8, 0.5, 9, 9)
	out := EwiseMult(a, b, nil)
	want := vecOf(10, 5, 12, 8, 1)
	if !out.EqualValues(want, 1e-12) {
		t.Errorf("EwiseMult = %v %v", out.Ind, out.Val)
	}
}

// TestEwiseMultMatchesMapOracle checks the two-pointer intersection
// against the map oracle bit for bit on every sortedness combination,
// including signed zeros, NaN payloads and a non-commutative combiner.
func TestEwiseMultMatchesMapOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8000000000001)
	unsorted := func(v *SpVec) *SpVec { v.Sorted = false; return v }
	minus := func(x, y float64) float64 { return x - y }
	cases := []struct {
		name string
		a, b *SpVec
		mul  func(x, y float64) float64
	}{
		{"both sorted", vecOf(10, 1, 2, 5, 3, 8, 2), vecOf(10, 5, 4, 8, 0.5, 9, 9), nil},
		{"a unsorted", vecOf(10, 8, 2, 1, 2, 5, 3), vecOf(10, 5, 4, 8, 0.5, 9, 9), nil},
		{"b unsorted", vecOf(10, 1, 2, 5, 3, 8, 2), vecOf(10, 9, 9, 8, 0.5, 5, 4), nil},
		{"both unsorted", vecOf(10, 8, 2, 1, 2, 5, 3), vecOf(10, 9, 9, 8, 0.5, 5, 4), minus},
		{"ordered but flagged unsorted", unsorted(vecOf(10, 1, 1, 4, 2)), unsorted(vecOf(10, 4, 3)), minus},
		{"disjoint", vecOf(10, 7, 1, 0, 1), vecOf(10, 3, 1, 9, 1), nil},
		{"a empty", NewSpVec(10, 0), vecOf(10, 3, 1), nil},
		{"b empty", vecOf(10, 3, 1), NewSpVec(10, 0), nil},
		{"signed zeros", vecOf(10, 2, negZero, 6, 0), vecOf(10, 6, negZero, 2, 1), nil},
		{"nan payloads", vecOf(10, 4, nan, 1, 2), vecOf(10, 1, math.NaN(), 4, 2), minus},
		{"infinities", vecOf(10, 0, math.Inf(1), 3, 0), vecOf(10, 3, math.Inf(-1), 0, 0), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := ewiseMultMap(c.a, c.b, c.mul)
			if d := sameBits(EwiseMult(c.a, c.b, c.mul), want); d != "" {
				t.Fatal(d)
			}
		})
	}
}

func TestEwiseDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	EwiseAdd(NewSpVec(3, 0), NewSpVec(4, 0), nil)
}

func TestFilterAndMask(t *testing.T) {
	v := vecOf(10, 0, 1, 3, 2, 6, 3, 9, 4)
	even := Filter(v, func(i Index, _ float64) bool { return i%2 == 0 })
	if even.NNZ() != 2 || even.Ind[0] != 0 || even.Ind[1] != 6 {
		t.Errorf("Filter = %v", even.Ind)
	}
	if !even.Sorted {
		t.Error("filter should preserve sortedness")
	}

	mask := NewBitVec(10)
	mv := vecOf(10, 3, 1, 9, 1)
	mask.SetFrom(mv)
	kept := FilterMask(v, mask, false)
	if kept.NNZ() != 2 || kept.Ind[0] != 3 || kept.Ind[1] != 9 {
		t.Errorf("FilterMask = %v", kept.Ind)
	}
	dropped := FilterMask(v, mask, true)
	if dropped.NNZ() != 2 || dropped.Ind[0] != 0 || dropped.Ind[1] != 6 {
		t.Errorf("FilterMask complement = %v", dropped.Ind)
	}
}

func TestReduceAndScale(t *testing.T) {
	v := vecOf(10, 1, 2, 5, 3, 7, 4)
	sum := Reduce(v, 0, func(a, b float64) float64 { return a + b })
	if sum != 9 {
		t.Errorf("Reduce = %g", sum)
	}
	maxv := Reduce(v, v.Val[0], func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
	if maxv != 4 {
		t.Errorf("max Reduce = %g", maxv)
	}
	Scale(v, 2)
	if v.Val[0] != 4 || v.Val[2] != 8 {
		t.Errorf("Scale = %v", v.Val)
	}
}

// BenchmarkEwiseAdd measures the union into a reused dst of a large
// sorted accumulator a and an unsorted operand b. The b=64 arms are a
// served BFS level (the visited set plus the engine's new frontier);
// the |b|=|a| arms are an unsorted operand as large as the accumulator
// (PageRank's ranks ∪ α·y, an Accum multiply of a dense product), half
// of whose indices collide with a.
func BenchmarkEwiseAdd(b *testing.B) {
	for _, arm := range []struct{ na, nb int }{
		{4096, 64}, {262144, 64}, {4096, 4096}, {262144, 262144},
	} {
		b.Run(fmt.Sprintf("a=%d/b=%d", arm.na, arm.nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			n := Index(2 * arm.na)
			a := NewSpVec(n, arm.na)
			for i := 0; i < arm.na; i++ {
				a.Append(Index(2*i), 1)
			}
			y := NewSpVec(n, arm.nb)
			for _, i := range rng.Perm(int(n))[:arm.nb] {
				y.Append(Index(i), 2)
			}
			y.Sorted = false
			dst := NewSpVec(n, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				EwiseAddInto(dst, a, y, nil)
			}
		})
	}
}
