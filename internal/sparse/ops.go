package sparse

import "slices"

// Element-wise sparse vector operations in the GraphBLAS style. Graph
// algorithms built on SpMSpV need a small set of vector combinators —
// union-add of two frontiers, filtering by predicate or mask,
// extraction — and keeping them here lets the algorithms stay purely
// vector-algebraic.

// EwiseAdd returns the element-wise union of a and b, combining
// collisions with add (nil means arithmetic +). Both inputs may be
// unsorted; the result is sorted.
func EwiseAdd(a, b *SpVec, add func(x, y float64) float64) *SpVec {
	out := NewSpVec(a.N, 0)
	EwiseAddInto(out, a, b, add)
	return out
}

// EwiseAddInto computes the element-wise union of a and b into dst,
// reusing dst's storage (the into-variant for iterative callers). dst
// must not alias a or b; collisions combine with add (nil means
// arithmetic +). The result is sorted. The union is one linear
// two-pointer merge: an unsorted operand is first stably sorted into a
// private copy (in iterative callers that is the small new frontier,
// not the large sorted accumulator), so a level costs O(|a|+|b|) plus
// the sort of the unsorted side. Equal indices fold a's entries first,
// in input order, then b's.
func EwiseAddInto(dst, a, b *SpVec, add func(x, y float64) float64) {
	if a.N != b.N {
		panic("sparse: EwiseAddInto dimension mismatch")
	}
	if add == nil {
		add = func(x, y float64) float64 { return x + y }
	}
	ewiseAddSorted(dst, sortedOrCopy(a), sortedOrCopy(b), add)
}

// sortedOrCopy returns v when it is sorted and otherwise a stably sorted
// copy, leaving the caller's vector untouched. The copy sorts one
// (index, position) key per entry — flipping the index's sign bit keeps
// int32 order under unsigned comparison, and the position breaks ties
// in input order — so it is an O(n log n) integer sort plus one gather,
// however large the unsorted operand.
func sortedOrCopy(v *SpVec) *SpVec {
	if v.Sorted {
		return v
	}
	keys := make([]uint64, len(v.Ind))
	for k, i := range v.Ind {
		keys[k] = uint64(uint32(i)^(1<<31))<<32 | uint64(k)
	}
	slices.Sort(keys)
	c := NewSpVec(v.N, len(keys))
	for _, key := range keys {
		k := uint32(key)
		c.Ind = append(c.Ind, v.Ind[k])
		c.Val = append(c.Val, v.Val[k])
	}
	c.Sorted = true
	return c
}

// ewiseAddSorted merges two sorted vectors into dst in one linear pass.
// Duplicate indices — across the inputs or (tolerated, though Validate
// rejects it) within one — combine with add via the check against dst's
// last emitted index.
func ewiseAddSorted(dst, a, b *SpVec, add func(x, y float64) float64) {
	dst.Reset(a.N)
	if need := a.NNZ() + b.NNZ(); cap(dst.Ind) < need {
		dst.Ind = make([]Index, 0, need)
		dst.Val = make([]float64, 0, need)
	}
	ind, val := dst.Ind[:0], dst.Val[:0]
	k, l := 0, 0
	for k < len(a.Ind) || l < len(b.Ind) {
		var i Index
		var v float64
		if l >= len(b.Ind) || (k < len(a.Ind) && a.Ind[k] <= b.Ind[l]) {
			i, v = a.Ind[k], a.Val[k]
			k++
		} else {
			i, v = b.Ind[l], b.Val[l]
			l++
		}
		if n := len(ind); n > 0 && ind[n-1] == i {
			val[n-1] = add(val[n-1], v)
		} else {
			ind = append(ind, i)
			val = append(val, v)
		}
	}
	dst.Ind, dst.Val = ind, val
	dst.Sorted = true
}

// EwiseMult returns the element-wise intersection of a and b, combining
// with mul (nil means arithmetic ×). The result is sorted. Like
// EwiseAddInto it is a linear two-pointer pass over stably sorted
// operands; every entry of a whose index b holds is combined, in a's
// input order, with b's last entry at that index.
func EwiseMult(a, b *SpVec, mul func(x, y float64) float64) *SpVec {
	if a.N != b.N {
		panic("sparse: EwiseMult dimension mismatch")
	}
	if mul == nil {
		mul = func(x, y float64) float64 { return x * y }
	}
	a, b = sortedOrCopy(a), sortedOrCopy(b)
	out := NewSpVec(a.N, min(a.NNZ(), b.NNZ()))
	l := 0
	for k, i := range a.Ind {
		for l < len(b.Ind) && b.Ind[l] < i {
			l++
		}
		for l+1 < len(b.Ind) && b.Ind[l+1] == i {
			l++
		}
		if l == len(b.Ind) {
			break
		}
		if b.Ind[l] == i {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, mul(a.Val[k], b.Val[l]))
		}
	}
	return out
}

// Filter returns the entries of v satisfying the predicate, preserving
// order and sortedness.
func Filter(v *SpVec, keep func(i Index, val float64) bool) *SpVec {
	out := NewSpVec(v.N, v.NNZ())
	for k, i := range v.Ind {
		if keep(i, v.Val[k]) {
			out.Ind = append(out.Ind, i)
			out.Val = append(out.Val, v.Val[k])
		}
	}
	out.Sorted = v.Sorted
	return out
}

// FilterMask returns the entries of v admitted by the mask (or, with
// complement, the entries outside it) — the post-hoc form of the masked
// multiply.
func FilterMask(v *SpVec, mask *BitVec, complement bool) *SpVec {
	return Filter(v, func(i Index, _ float64) bool {
		keep := mask.Test(i)
		if complement {
			keep = !keep
		}
		return keep
	})
}

// FilterMaskInPlace drops the entries of v not admitted by the mask
// (or, with complement, the entries inside it), compacting v's storage
// — the allocation-free form engines use to mask a product after the
// fact.
func FilterMaskInPlace(v *SpVec, mask *BitVec, complement bool) {
	w := 0
	for k, i := range v.Ind {
		keep := mask.Test(i)
		if complement {
			keep = !keep
		}
		if keep {
			v.Ind[w], v.Val[w] = i, v.Val[k]
			w++
		}
	}
	v.Ind = v.Ind[:w]
	v.Val = v.Val[:w]
}

// Reduce folds all values of v with the combiner starting from init.
func Reduce(v *SpVec, init float64, combine func(acc, val float64) float64) float64 {
	acc := init
	for _, val := range v.Val {
		acc = combine(acc, val)
	}
	return acc
}

// Scale multiplies every value in place and returns v.
func Scale(v *SpVec, s float64) *SpVec {
	for k := range v.Val {
		v.Val[k] *= s
	}
	return v
}
