package main

import (
	"fmt"
	"math/rand"
	"sync"

	"spmspv"
)

// serialBFS is the level oracle: a plain queue BFS over the columns of
// a (column j lists the out-neighbours of j, as spmspv.BFS reads it).
func serialBFS(a *spmspv.Matrix, src spmspv.Index) []int32 {
	levels := make([]int32, a.NumCols)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	queue := []spmspv.Index{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		rows, _ := a.Col(v)
		for _, u := range rows {
			if levels[u] < 0 {
				levels[u] = levels[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return levels
}

// bfsInputs is a BFS workload's seeded operation list: the sources,
// a hash of each one's oracle levels, and the edges its search
// traverses. Hashes keep the benchmark's own memory out of heap_mb.
type bfsInputs struct {
	a       *spmspv.Matrix
	sources []spmspv.Index
	levels  []uint64
	edges   []int64

	mu      sync.Mutex
	trees   map[int]uint64         // hash of each source's validated parent tree
	pending map[int][]spmspv.Index // first tree seen per source, not yet validated
}

// giantStratum is the component of the highest-degree vertex: R-MAT
// graphs also have many tiny components, whose searches would measure
// only call overhead, so sources are drawn from the giant one.
func giantStratum(a *spmspv.Matrix) [][]spmspv.Index {
	hub := spmspv.Index(0)
	for j := spmspv.Index(1); j < a.NumCols; j++ {
		if a.ColLen(j) > a.ColLen(hub) {
			hub = j
		}
	}
	var comp []spmspv.Index
	for v, l := range serialBFS(a, hub) {
		if l >= 0 {
			comp = append(comp, spmspv.Index(v))
		}
	}
	return [][]spmspv.Index{comp}
}

// gridStrata splits the vertices of a side×side Grid2D into b×b equal
// blocks, b = ⌊√k⌋. A search's cost on a grid follows its source's
// eccentricity, so drawing one source per block (stratified sampling)
// keeps the mix of short and long searches the same for every seed.
func gridStrata(side, k int) [][]spmspv.Index {
	b := 1
	for (b+1)*(b+1) <= k && b+1 <= side {
		b++
	}
	strata := make([][]spmspv.Index, b*b)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := (r*b/side)*b + c*b/side
			strata[i] = append(strata[i], spmspv.Index(r*side+c))
		}
	}
	return strata
}

// newBFSInputs draws k distinct sources with the seeded generator,
// taking them from the strata in turn, and computes each one's oracle.
func newBFSInputs(a *spmspv.Matrix, seed int64, k int, strata [][]spmspv.Index) *bfsInputs {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	shuffled := make([][]spmspv.Index, len(strata))
	for i, st := range strata {
		st = append([]spmspv.Index(nil), st...)
		rng.Shuffle(len(st), func(x, y int) { st[x], st[y] = st[y], st[x] })
		shuffled[i] = st
		total += len(st)
	}
	k = min(k, total)
	var sources []spmspv.Index
	for i := 0; len(sources) < k; i++ {
		st := shuffled[i%len(shuffled)]
		if j := i / len(shuffled); j < len(st) {
			sources = append(sources, st[j])
		}
	}
	in := &bfsInputs{a: a, sources: sources, trees: map[int]uint64{}, pending: map[int][]spmspv.Index{}}
	for _, src := range sources {
		want := serialBFS(a, src)
		var e int64
		for v, l := range want {
			if l >= 0 {
				e += a.ColLen(spmspv.Index(v))
			}
		}
		in.levels = append(in.levels, hash32(want))
		in.edges = append(in.edges, e)
	}
	return in
}

// hash32 is FNV-1a over a slice of 32-bit values.
func hash32[T ~int32](xs []T) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= uint64(uint32(x))
		h *= 1099511628211
	}
	return h
}

// check verifies one search from source number i: its levels must hash
// like the oracle's, and its parents must equal the first tree seen
// from that source ((min, select2nd) parent choice is deterministic).
// That first tree is validated by verify, outside the timed loop, so
// the per-operation check stays O(n).
func (in *bfsInputs) check(i int, levels []int32, parents []spmspv.Index) error {
	src := in.sources[i]
	if len(levels) != len(parents) || len(levels) != int(in.a.NumCols) {
		return fmt.Errorf("source %d: result has %d levels and %d parents, want %d", src, len(levels), len(parents), in.a.NumCols)
	}
	if hash32(levels) != in.levels[i] {
		want := serialBFS(in.a, src)
		for v := range want {
			if levels[v] != want[v] {
				return fmt.Errorf("source %d: vertex %d at level %d, oracle says %d", src, v, levels[v], want[v])
			}
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if h, ok := in.trees[i]; ok {
		if hash32(parents) != h {
			return fmt.Errorf("source %d: parents differ from the validated tree", src)
		}
		return nil
	}
	kept := in.pending[i]
	if kept == nil {
		in.pending[i] = append([]spmspv.Index(nil), parents...)
		return nil
	}
	for v := range kept {
		if parents[v] != kept[v] {
			return fmt.Errorf("source %d: parent of %d is %d, an earlier search chose %d", src, v, parents[v], kept[v])
		}
	}
	return nil
}

// verify validates the pending trees against the oracle and keeps only
// their hashes.
func (in *bfsInputs) verify() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, p := range in.pending {
		if err := validTree(in.a, in.sources[i], serialBFS(in.a, in.sources[i]), p); err != nil {
			return fmt.Errorf("source %d: %w", in.sources[i], err)
		}
		in.trees[i] = hash32(p)
		delete(in.pending, i)
	}
	return nil
}

// validTree checks that parents is a BFS tree for the oracle levels:
// the source is its own parent, unreached vertices have none, and
// every other reached vertex hangs off a vertex one level up through an
// edge of a. The edge test walks every column once, O(nnz).
func validTree(a *spmspv.Matrix, src spmspv.Index, levels []int32, parents []spmspv.Index) error {
	if parents[src] != src {
		return fmt.Errorf("source's parent is %d", parents[src])
	}
	n := spmspv.Index(len(levels))
	for v, l := range levels {
		p := parents[v]
		switch {
		case spmspv.Index(v) == src:
		case l < 0:
			if p != -1 {
				return fmt.Errorf("unreached vertex %d has parent %d", v, p)
			}
		case p < 0 || p >= n:
			return fmt.Errorf("vertex %d has parent %d out of range", v, p)
		case levels[p] != l-1:
			return fmt.Errorf("vertex %d at level %d has parent %d at level %d", v, l, p, levels[p])
		}
	}
	hasEdge := make([]bool, n)
	for p := spmspv.Index(0); p < a.NumCols; p++ {
		rows, _ := a.Col(p)
		for _, v := range rows {
			if parents[v] == p {
				hasEdge[v] = true
			}
		}
	}
	for v, l := range levels {
		if l > 0 && !hasEdge[v] {
			return fmt.Errorf("vertex %d has parent %d but no edge %d->%d", v, parents[v], parents[v], v)
		}
	}
	return nil
}

// multRequest is one distinct serve-mult request with its exact answer.
type multRequest struct {
	req   *spmspv.Request
	want  *spmspv.Vector // sorted
	flops int64          // matrix entries the product touches
}

// newMultRequests draws k requests of nnzX distinct nonzero-degree
// columns with values in 1..4. The matrix values are small integers
// too, so every product and sum is exact in float64 and the expected y
// is independent of summation order.
func newMultRequests(a *spmspv.Matrix, name string, seed int64, k, nnzX int) []multRequest {
	var cols []spmspv.Index
	for j := spmspv.Index(0); j < a.NumCols; j++ {
		if a.ColLen(j) > 0 {
			cols = append(cols, j)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	acc := make([]float64, a.NumRows)
	out := make([]multRequest, k)
	for q := range out {
		x := spmspv.NewVector(a.NumCols, nnzX)
		seen := map[spmspv.Index]bool{}
		for x.NNZ() < nnzX && x.NNZ() < len(cols) {
			j := cols[rng.Intn(len(cols))]
			if !seen[j] {
				seen[j] = true
				x.Append(j, float64(1+rng.Intn(4)))
			}
		}
		var flops int64
		for k, j := range x.Ind {
			rows, vals := a.Col(j)
			for t, i := range rows {
				acc[i] += vals[t] * x.Val[k]
			}
			flops += int64(len(rows))
		}
		want := spmspv.NewVector(a.NumRows, 0)
		for i, v := range acc {
			if v != 0 {
				want.Append(spmspv.Index(i), v)
				acc[i] = 0
			}
		}
		out[q] = multRequest{
			req:   &spmspv.Request{Matrix: name, X: x, Desc: spmspv.Desc{Semiring: "arithmetic"}},
			want:  want,
			flops: flops,
		}
	}
	return out
}

// multChecker compares served products with the expected vectors in
// O(nnz) using a dense scratch row; each closed-loop caller owns one.
type multChecker struct {
	val  []float64
	seen []bool
}

func newMultChecker(m spmspv.Index) *multChecker {
	return &multChecker{val: make([]float64, m), seen: make([]bool, m)}
}

func (c *multChecker) check(got, want *spmspv.Vector) error {
	if got == nil {
		return fmt.Errorf("response without y")
	}
	if got.N != want.N || got.NNZ() != want.NNZ() {
		return fmt.Errorf("y has dimension %d and %d nonzeros, want %d and %d", got.N, got.NNZ(), want.N, want.NNZ())
	}
	defer func() {
		for _, i := range got.Ind {
			if i >= 0 && i < spmspv.Index(len(c.seen)) {
				c.seen[i] = false
			}
		}
	}()
	for k, i := range got.Ind {
		if i < 0 || i >= want.N || c.seen[i] {
			return fmt.Errorf("y has bad or repeated index %d", i)
		}
		c.seen[i] = true
		c.val[i] = got.Val[k]
	}
	for k, i := range want.Ind {
		if !c.seen[i] || c.val[i] != want.Val[k] {
			return fmt.Errorf("y(%d) wrong: want %v", i, want.Val[k])
		}
	}
	return nil
}
