package spmspv

import (
	"fmt"
)

// bfsSeed builds the one-entry BFS seed vector: the frontier value IS
// the vertex id, so the (min, select2nd) semiring propagates parents.
func bfsSeed(n, source Index) *Vector {
	x := NewVector(n, 1)
	x.Append(source, float64(source))
	return x
}

// BFSProgram builds the constant-size loop-based masked-BFS program:
// one input op plus one loop whose body is the level step — a
// complemented-mask (min, select2nd) multiply against the visited set,
// a union extending the visited set, and an indices op forming the
// next frontier — with the frontier and visited set as loop-carried
// values and an until_empty exit. maxLevels (≥ 1) bounds the loop; the
// graph's true depth decides how many iterations actually run, so the
// program is the same handful of ops for a 10-vertex ring or a
// 10^6-vertex path graph.
//
// seed is the start frontier (see bfsSeed); a nil seed produces the
// stored-procedure form whose input binds to the invoke argument
// "seed", so a registered BFS program serves any source vertex.
func BFSProgram(matrix string, maxLevels int, seed *Vector) *Program {
	input := ProgramOp{Op: "input", X: seed}
	if seed == nil {
		input.Param = "seed"
	}
	return &Program{Matrix: matrix, Ops: []ProgramOp{
		input, // $0: frontier = visited = seed
		{
			Op:         "loop",
			Carry:      []string{ref(0), ref(0)}, // ^0 frontier, ^1 visited
			MaxIters:   maxLevels,
			Update:     []string{ref(2), ref(1)},
			UntilEmpty: ref(0),
			Body: []ProgramOp{
				{ // $0: next level's discoveries
					XRef:    carryRef(0),
					MaskRef: carryRef(1),
					Desc:    Desc{Complement: true, Semiring: "bfs"},
					Emit:    true,
				},
				{Op: "union", XRef: carryRef(1), YRef: ref(0)}, // $1: visited ∪ y
				{Op: "indices", XRef: ref(0)},                  // $2: next frontier
			},
		},
	}}
}

// ProgramBFS runs the multi-level masked BFS as ONE round trip using
// the constant-size loop program (see BFSProgram): the level loop
// executes server-side, and only the per-level discovery vectors come
// back. maxLevels bounds the iteration (≤ 0 means n, the worst case —
// a path graph); the until_empty exit stops it at the true BFS depth.
//
// ex is any Executor — a Client for a remote server, a Store for the
// in-process form — and the result is identical to algorithms.BFS on
// the same matrix.
func ProgramBFS(ex Executor, matrix string, n Index, source Index, maxLevels int) (*BFSResult, error) {
	if source < 0 || source >= n {
		return nil, fmt.Errorf("spmspv: BFS source %d out of range [0,%d)", source, n)
	}
	if maxLevels <= 0 {
		maxLevels = int(n)
	}
	resp, err := ex.Run(BFSProgram(matrix, maxLevels, bfsSeed(n, source)))
	if err != nil {
		return nil, err
	}
	return DecodeBFSProgramResponse(resp, n, source, maxLevels)
}

// DecodeBFSProgramResponse folds a BFSProgram response — per-iteration
// emissions of body op 0, the levels' discovery vectors in execution
// order — into a BFSResult, mirroring exactly what algorithms.BFS
// records in-process: FrontierSizes counts nnz(x) per multiply
// performed, and each discovered vertex's value is its parent. Shared
// by ProgramBFS and the stored-procedure invoke path; a response with
// no empty level ran out of iterations and is an error.
func DecodeBFSProgramResponse(resp *ProgramResponse, n, source Index, maxLevels int) (*BFSResult, error) {
	res := &BFSResult{
		Parents: make([]Index, n),
		Levels:  make([]int32, n),
	}
	for i := range res.Parents {
		res.Parents[i] = -1
		res.Levels[i] = -1
	}
	res.Parents[source] = source
	res.Levels[source] = 0

	res.FrontierSizes = append(res.FrontierSizes, 1)
	level := int32(0)
	for _, r := range resp.Results {
		if r.Iter == 0 || r.BodyOp != 0 {
			continue
		}
		y := r.Y
		if y == nil {
			return nil, fmt.Errorf("spmspv: program response missing a BFS level vector")
		}
		level++
		for k, i := range y.Ind {
			res.Levels[i] = level
			res.Parents[i] = Index(y.Val[k])
		}
		if y.NNZ() == 0 {
			return res, nil
		}
		res.FrontierSizes = append(res.FrontierSizes, y.NNZ())
	}
	return nil, fmt.Errorf("spmspv: BFS did not terminate within %d levels (raise maxLevels)", maxLevels)
}

// pageRankDefaults mirrors algorithms.PageRankOptions' defaults.
func pageRankDefaults(opt PageRankOptions) PageRankOptions {
	if opt.Damping == 0 {
		opt.Damping = 0.85
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 100
	}
	return opt
}

// PageRankProgram builds the server-side data-driven PageRank power
// iteration as a loop program over the scalar ops: each iteration
// multiplies the active delta frontier through the column-normalized
// matrix, scales by the damping factor, accumulates into the rank
// vector, prunes converged vertices below the tolerance (the paper's
// "mark vertices inactive as soon as their value converges"), and
// reduces the surviving frontier to an nnz register whose until_below
// exit (< 1, i.e. empty) is the convergence test — all without a
// single client round trip per iteration.
//
// seed is the initial delta vector, (1−α)/n at every vertex (see
// ProgramPageRank); a nil seed produces the stored-procedure form
// binding the invoke argument "seed" and the scalar bindings "damping"
// and "tol", so one registered program serves any (α, tol) pair.
func PageRankProgram(matrix string, opt PageRankOptions, seed *Vector) *Program {
	opt = pageRankDefaults(opt)
	input := ProgramOp{Op: "input", X: seed}
	scale := ProgramOp{Op: "scale", XRef: ref(0)}
	prune := ProgramOp{Op: "prune", XRef: ref(1)}
	if seed == nil {
		input.Param = "seed"
		scale.AlphaRef = "damping"
		prune.AlphaRef = "tol"
	} else {
		damping, tol := opt.Damping, opt.Tol
		scale.Alpha = &damping
		prune.Alpha = &tol
	}
	return &Program{Matrix: matrix, Ops: []ProgramOp{
		input, // $0: delta₀ = (1−α)/n everywhere
		{
			Op:         "loop",
			Emit:       true,                     // final carry 0 = the rank vector
			Carry:      []string{ref(0), ref(0)}, // ^0 ranks, ^1 delta
			MaxIters:   opt.MaxIter,
			Update:     []string{ref(2), ref(3)},
			UntilBelow: ref(4), // exit once the frontier is empty
			Threshold:  1,
			Body: []ProgramOp{
				{XRef: carryRef(1), Desc: Desc{Semiring: "arithmetic", Output: OutputList}}, // $0: y = Â·Δ
				scale, // $1: dv = α·y
				{Op: "union", XRef: carryRef(0), YRef: ref(1)}, // $2: ranks += dv
				prune, // $3: Δ' = {|dv| > tol}
				{Op: "reduce", Reduce: "nnz", XRef: ref(3), Emit: true}, // $4: |Δ'|
			},
		},
	}}
}

// PageRankSeed builds delta₀: (1−α)/n at every vertex. The explicit
// dense-over-support start is what makes the first iteration touch
// every column exactly as the in-process iteration does.
func PageRankSeed(n Index, damping float64) *Vector {
	x := NewVector(n, int(n))
	init := (1 - damping) / float64(n)
	for i := Index(0); i < n; i++ {
		x.Append(i, init)
	}
	return x
}

// DecodePageRankProgramResponse folds a PageRankProgram response into a
// PageRankResult: the per-iteration nnz registers reconstruct
// ActiveCounts (the count fed into iteration k is the count surviving
// iteration k-1, with nnz(delta₀) = n first), and the loop's final
// rank vector is scattered dense and L1-normalized exactly as
// algorithms.PageRank does on return.
func DecodePageRankProgramResponse(resp *ProgramResponse, n Index) (*PageRankResult, error) {
	res := &PageRankResult{Ranks: make([]float64, n)}
	var ranks *Vector
	counts := []int{int(n)}
	for _, r := range resp.Results {
		switch {
		case r.Iter > 0 && r.Scalar != nil:
			counts = append(counts, int(*r.Scalar))
		case r.Iter == 0 && r.Y != nil:
			ranks = r.Y
		}
	}
	if ranks == nil {
		return nil, fmt.Errorf("spmspv: program response missing the rank vector")
	}
	res.Iterations = len(counts) - 1
	res.ActiveCounts = counts[:len(counts)-1]
	for k, i := range ranks.Ind {
		res.Ranks[i] = ranks.Val[k]
	}
	var sum float64
	for _, r := range res.Ranks {
		sum += r
	}
	if sum > 0 {
		for i := range res.Ranks {
			res.Ranks[i] /= sum
		}
	}
	return res, nil
}

// ProgramPageRank runs the data-driven PageRank iteration entirely
// server-side as ONE round trip (see PageRankProgram): only delta₀
// goes up and the converged rank vector comes back, versus one
// multiply round trip per iteration for a client-driven loop. matrix
// must name a column-normalized adjacency matrix (see
// algorithms.NormalizeColumns); the result is identical to
// algorithms.PageRank with the same options on the same matrix.
func ProgramPageRank(ex Executor, matrix string, n Index, opt PageRankOptions) (*PageRankResult, error) {
	opt = pageRankDefaults(opt)
	if n == 0 {
		return &PageRankResult{Ranks: []float64{}}, nil
	}
	resp, err := ex.Run(PageRankProgram(matrix, opt, PageRankSeed(n, opt.Damping)))
	if err != nil {
		return nil, err
	}
	return DecodePageRankProgramResponse(resp, n)
}
