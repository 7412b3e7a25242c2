package sparse

import (
	"math/bits"
	"sort"
)

// RowSlice extracts global rows [lo, hi) of a as a standalone CSC
// matrix with local row ids (global − lo) — the same row decomposition
// RowSplit performs for the intra-process baselines, promoted to a
// freestanding piece that can be uploaded, stored and multiplied on its
// own. Piece w of an nshards-way split is
//
//	RowSlice(a, PieceBounds(m, n)[w], PieceBounds(m, n)[w+1])
//
// so the sharded serving layer and the in-process row-split baselines
// agree on which rows every piece owns. Column order, intra-column row
// order and SortedCols are preserved; multiplying the piece by the full
// x yields exactly rows [lo, hi) of A·x, shifted to local ids — the
// property that makes the sharded gather a pure concat.
//
// When a has sorted columns, each column's row range is located by
// binary search, so a slice costs O(nzc·log(colLen) + nnz(piece))
// rather than a full O(nnz) scan per piece.
func RowSlice(a *CSC, lo, hi Index) *CSC {
	if lo < 0 {
		lo = 0
	}
	if hi > a.NumRows {
		hi = a.NumRows
	}
	if hi < lo {
		hi = lo
	}
	out := &CSC{
		NumRows:    hi - lo,
		NumCols:    a.NumCols,
		ColPtr:     make([]int64, a.NumCols+1),
		SortedCols: a.SortedCols,
	}
	// band returns column j's entries and, when the column is sorted,
	// the [b, e) range of them that falls in [lo, hi).
	band := func(j Index) (rows []Index, vals []float64, b, e int) {
		rows, vals = a.Col(j)
		if !a.SortedCols {
			return rows, vals, 0, len(rows)
		}
		b = sort.Search(len(rows), func(k int) bool { return rows[k] >= lo })
		e = b + sort.Search(len(rows)-b, func(k int) bool { return rows[b+k] >= hi })
		return rows, vals, b, e
	}
	// Count first, so the piece's storage is allocated at its exact
	// size: a shard holds its band for its whole life, and append's
	// growth slack would add up to a quarter again.
	for j := Index(0); j < a.NumCols; j++ {
		rows, _, b, e := band(j)
		n := 0
		for _, i := range rows[b:e] {
			if i >= lo && i < hi {
				n++
			}
		}
		out.ColPtr[j+1] = out.ColPtr[j] + int64(n)
	}
	out.RowIdx = make([]Index, 0, out.ColPtr[a.NumCols])
	out.Val = make([]float64, 0, out.ColPtr[a.NumCols])
	for j := Index(0); j < a.NumCols; j++ {
		rows, vals, b, e := band(j)
		for k := b; k < e; k++ {
			if i := rows[k]; i >= lo && i < hi {
				out.RowIdx = append(out.RowIdx, i-lo)
				out.Val = append(out.Val, vals[k])
			}
		}
	}
	return out
}

// Slice extracts rows [lo, hi) of the bitvector as a standalone BitVec
// of dimension hi−lo with local ids — the mask form a row-range shard
// consumes: an output mask of the full matrix restricted to the rows
// the shard owns. Values ride along, so a valued mask slices exactly.
func (b *BitVec) Slice(lo, hi Index) *BitVec {
	if lo < 0 {
		lo = 0
	}
	if hi > b.N {
		hi = b.N
	}
	if hi < lo {
		hi = lo
	}
	out := NewBitVec(hi - lo)
	// Word-wise: output word w is source bits [lo+64w, lo+64w+64), a
	// shifted pair of source words; bits past hi are cleared from the
	// last word, and values are copied at the set bits only.
	base, shift := int(lo)>>6, uint(lo)&63
	for w := range out.Words {
		word := b.Words[base+w] >> shift
		if shift != 0 && base+w+1 < len(b.Words) {
			word |= b.Words[base+w+1] << (64 - shift)
		}
		out.Words[w] = word
	}
	if tail := uint(hi-lo) & 63; tail != 0 {
		out.Words[len(out.Words)-1] &= 1<<tail - 1
	}
	for w, word := range out.Words {
		out.nset += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			li := w<<6 + bits.TrailingZeros64(word)
			out.Val[li] = b.Val[int(lo)+li]
		}
	}
	return out
}

// OrAt merges src's set bits (and values) into b at row offset off —
// the gather side of Slice: shard w's local-id output bitmap lands at
// its global row range with one call per shard. Offsets must keep
// src within b's dimension; entries already set in b are overwritten.
func (b *BitVec) OrAt(src *BitVec, off Index) {
	for w, word := range src.Words {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			word &^= 1 << uint(t)
			li := Index(w<<6 + t)
			i := off + li
			gw, gbit := int(i)>>6, uint(i)&63
			if b.Words[gw]&(1<<gbit) == 0 {
				b.nset++
			}
			b.Words[gw] |= 1 << gbit
			b.Val[i] = src.Val[li]
		}
	}
}
