package sparse

import (
	"math/rand"
	"testing"
)

func randomCSC(t *testing.T, rng *rand.Rand, m, n Index, nnz int) *CSC {
	t.Helper()
	tr := NewTriples(m, n, nnz)
	for k := 0; k < nnz; k++ {
		tr.Append(Index(rng.Intn(int(m))), Index(rng.Intn(int(n))), float64(rng.Intn(9)+1))
	}
	a, err := NewCSCFromTriples(tr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRowSliceMatchesExtract pins RowSlice to the established
// ExtractSubmatrix semantics on full-width row slabs, for sorted and
// unsorted column storage, and checks the slab holds no growth slack.
func TestRowSliceMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := Index(rng.Intn(100) + 1)
		n := Index(rng.Intn(100) + 1)
		a := randomCSC(t, rng, m, n, rng.Intn(400))
		if trial%2 == 1 {
			// Exercise the linear-scan path: shuffle each column's entries
			// and drop the sorted flag.
			a.SortedCols = false
			for j := Index(0); j < n; j++ {
				lo, hi := a.ColPtr[j], a.ColPtr[j+1]
				rng.Shuffle(int(hi-lo), func(x, y int) {
					a.RowIdx[lo+int64(x)], a.RowIdx[lo+int64(y)] = a.RowIdx[lo+int64(y)], a.RowIdx[lo+int64(x)]
					a.Val[lo+int64(x)], a.Val[lo+int64(y)] = a.Val[lo+int64(y)], a.Val[lo+int64(x)]
				})
			}
		}
		lo := Index(rng.Intn(int(m) + 1))
		hi := lo + Index(rng.Intn(int(m-lo)+1))
		got := RowSlice(a, lo, hi)
		want, err := ExtractSubmatrix(a, lo, hi, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows != want.NumRows || got.NumCols != want.NumCols || got.NNZ() != want.NNZ() {
			t.Fatalf("slice [%d,%d): got %v want %v", lo, hi, got, want)
		}
		for k := range got.RowIdx {
			if got.RowIdx[k] != want.RowIdx[k] || got.Val[k] != want.Val[k] {
				t.Fatalf("slice [%d,%d): entry %d = (%d,%g), want (%d,%g)",
					lo, hi, k, got.RowIdx[k], got.Val[k], want.RowIdx[k], want.Val[k])
			}
		}
		for j := range got.ColPtr {
			if got.ColPtr[j] != want.ColPtr[j] {
				t.Fatalf("slice [%d,%d): colptr[%d] = %d, want %d", lo, hi, j, got.ColPtr[j], want.ColPtr[j])
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("slice fails Validate: %v", err)
		}
		if cap(got.RowIdx) != len(got.RowIdx) || cap(got.Val) != len(got.Val) {
			t.Fatalf("slice [%d,%d): storage cap %d/%d for %d entries, want exact",
				lo, hi, cap(got.RowIdx), cap(got.Val), got.NNZ())
		}
	}
}

// TestRowSliceAgreesWithRowSplit pins the sharding decomposition to the
// baselines' intra-process one: piece w of RowSplit(a, p) holds exactly
// the entries of RowSlice(a, bounds[w], bounds[w+1]).
func TestRowSliceAgreesWithRowSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, p := range []int{1, 2, 3, 7} {
		a := randomCSC(t, rng, 53, 41, 300)
		pieces := RowSplit(a, p)
		bounds := PieceBounds(a.NumRows, p)
		for w, d := range pieces {
			s := RowSlice(a, bounds[w], bounds[w+1])
			if s.NumRows != d.NumRows || s.NNZ() != d.NNZ() {
				t.Fatalf("p=%d piece %d: slice %v vs split nnz=%d rows=%d", p, w, s, d.NNZ(), d.NumRows)
			}
			for j := Index(0); j < a.NumCols; j++ {
				sr, sv := s.Col(j)
				dr, dv := d.Col(j)
				if len(sr) != len(dr) {
					t.Fatalf("p=%d piece %d col %d: slice %d entries, split %d", p, w, j, len(sr), len(dr))
				}
				for k := range sr {
					if sr[k] != dr[k] || sv[k] != dv[k] {
						t.Fatalf("p=%d piece %d col %d entry %d: slice (%d,%g) split (%d,%g)",
							p, w, j, k, sr[k], sv[k], dr[k], dv[k])
					}
				}
			}
		}
	}
}

// TestRowSplitEdgeCases covers the degenerate decompositions the
// sharded layer must survive: more pieces than rows (empty pieces),
// single-row matrices, and a single piece.
func TestRowSplitEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	t.Run("more pieces than rows", func(t *testing.T) {
		a := randomCSC(t, rng, 3, 10, 20)
		pieces := RowSplit(a, 8)
		if len(pieces) != 8 {
			t.Fatalf("got %d pieces, want 8", len(pieces))
		}
		var nnz int64
		var rows Index
		empty := 0
		for _, d := range pieces {
			nnz += d.NNZ()
			rows += d.NumRows
			if d.NumRows == 0 {
				if d.NNZ() != 0 {
					t.Fatalf("empty-row piece holds %d entries", d.NNZ())
				}
				empty++
			}
		}
		if nnz != a.NNZ() || rows != a.NumRows {
			t.Fatalf("pieces cover nnz=%d rows=%d, want %d/%d", nnz, rows, a.NNZ(), a.NumRows)
		}
		if empty < 5 {
			t.Fatalf("8-way split of 3 rows produced only %d empty pieces", empty)
		}
		bounds := PieceBounds(a.NumRows, 8)
		for w, d := range pieces {
			if d.NumRows != bounds[w+1]-bounds[w] {
				t.Fatalf("piece %d rows %d, bounds say %d", w, d.NumRows, bounds[w+1]-bounds[w])
			}
			if s := RowSlice(a, bounds[w], bounds[w+1]); s.NNZ() != d.NNZ() {
				t.Fatalf("piece %d: slice nnz %d, split nnz %d", w, s.NNZ(), d.NNZ())
			}
		}
	})

	t.Run("single-row matrix", func(t *testing.T) {
		a := randomCSC(t, rng, 1, 12, 8)
		for _, p := range []int{1, 2, 5} {
			pieces := RowSplit(a, p)
			if got := pieces[0].NNZ(); got != a.NNZ() {
				t.Fatalf("p=%d: first piece holds %d of %d entries", p, got, a.NNZ())
			}
			for w := 1; w < p; w++ {
				if pieces[w].NumRows != 0 || pieces[w].NNZ() != 0 {
					t.Fatalf("p=%d piece %d not empty: rows=%d nnz=%d", p, w, pieces[w].NumRows, pieces[w].NNZ())
				}
			}
		}
	})

	t.Run("single piece is whole matrix", func(t *testing.T) {
		a := randomCSC(t, rng, 17, 9, 60)
		s := RowSlice(a, 0, a.NumRows)
		if !s.Equal(a) {
			t.Fatalf("RowSlice(a, 0, m) differs from a")
		}
	})

	t.Run("clamped and inverted ranges", func(t *testing.T) {
		a := randomCSC(t, rng, 10, 10, 30)
		if s := RowSlice(a, -5, 100); !s.Equal(a) {
			t.Fatalf("clamped full slice differs from a")
		}
		if s := RowSlice(a, 7, 3); s.NumRows != 0 || s.NNZ() != 0 {
			t.Fatalf("inverted range not empty: %v", s)
		}
	})
}

// TestBitVecSliceOrAt round-trips a bitvector through per-piece Slice
// and offset OrAt — the mask scatter and bitmap gather of the sharded
// serving path.
func TestBitVecSliceOrAt(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []Index{1, 63, 64, 65, 300} {
		b := NewBitVec(n)
		x := NewSpVec(n, 0)
		for i := Index(0); i < n; i++ {
			if rng.Intn(3) == 0 {
				x.Append(i, float64(i)+0.5)
			}
		}
		b.SetFrom(x)
		for _, p := range []int{1, 2, 3, 9} {
			bounds := PieceBounds(n, p)
			re := NewBitVec(n)
			total := 0
			for w := 0; w < p; w++ {
				piece := b.Slice(bounds[w], bounds[w+1])
				if piece.N != bounds[w+1]-bounds[w] {
					t.Fatalf("n=%d p=%d piece %d dim %d, want %d", n, p, w, piece.N, bounds[w+1]-bounds[w])
				}
				total += piece.Count()
				re.OrAt(piece, bounds[w])
			}
			if total != b.Count() {
				t.Fatalf("n=%d p=%d: pieces count %d, want %d", n, p, total, b.Count())
			}
			if re.Count() != b.Count() {
				t.Fatalf("n=%d p=%d: reassembled count %d, want %d", n, p, re.Count(), b.Count())
			}
			for i := Index(0); i < n; i++ {
				gv, gok := re.Get(i)
				wv, wok := b.Get(i)
				if gok != wok || gv != wv {
					t.Fatalf("n=%d p=%d row %d: got (%g,%v) want (%g,%v)", n, p, i, gv, gok, wv, wok)
				}
			}
		}
	}
}

// TestBitVecSliceMatchesPerBit checks the word-level Slice against a
// per-bit oracle on random, word-aligned, unaligned, empty, inverted
// and clamped bounds: the words (tail bits included), the values (set
// bits only — a stale value under a clear bit must not travel) and
// Count.
func TestBitVecSliceMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []Index{1, 63, 64, 65, 128, 200, 1000} {
		for _, density := range []float64{0, 0.05, 0.5, 1} {
			b := NewBitVec(n)
			for i := range b.Val {
				b.Val[i] = rng.NormFloat64() // stale under clear bits
			}
			x := NewSpVec(n, 0)
			for i := Index(0); i < n; i++ {
				if rng.Float64() < density {
					x.Append(i, float64(i)+0.5)
				}
			}
			b.SetFrom(x)
			bounds := [][2]Index{{0, n}, {0, 0}, {n, n}, {n / 2, n / 2}, {n, 0}, {-5, n + 5}}
			for _, w := range []Index{0, 64, 128} {
				bounds = append(bounds, [2]Index{w, n}, [2]Index{w, w + 64}, [2]Index{1, w + 1})
			}
			for range 40 {
				bounds = append(bounds, [2]Index{Index(rng.Intn(int(n) + 1)), Index(rng.Intn(int(n) + 1))})
			}
			for _, lh := range bounds {
				lo, hi := lh[0], lh[1]
				got := b.Slice(lo, hi)
				want := sliceOracle(b, lo, hi)
				if got.N != want.N || got.Count() != want.Count() {
					t.Fatalf("n=%d [%d,%d): got n=%d count=%d, want n=%d count=%d",
						n, lo, hi, got.N, got.Count(), want.N, want.Count())
				}
				for w := range want.Words {
					if got.Words[w] != want.Words[w] {
						t.Fatalf("n=%d [%d,%d) word %d: got %#x, want %#x", n, lo, hi, w, got.Words[w], want.Words[w])
					}
				}
				for i := range want.Val {
					if got.Val[i] != want.Val[i] {
						t.Fatalf("n=%d [%d,%d) val %d: got %g, want %g", n, lo, hi, i, got.Val[i], want.Val[i])
					}
				}
			}
		}
	}
}

// sliceOracle is BitVec.Slice one bit at a time.
func sliceOracle(b *BitVec, lo, hi Index) *BitVec {
	lo, hi = max(lo, 0), min(hi, b.N)
	hi = max(hi, lo)
	out := NewBitVec(hi - lo)
	x := NewSpVec(hi-lo, 0)
	for i := lo; i < hi; i++ {
		if v, ok := b.Get(i); ok {
			x.Append(i-lo, v)
		}
	}
	out.SetFrom(x)
	return out
}
