package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"spmspv/internal/graphgen"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// sizingGraph is a benchmark matrix with a BFS level whose flop count
// (df, the matrix entries the level selects) is nearest a target.
type sizingGraph struct {
	name  string
	a     *sparse.CSC
	level *sparse.SpVec
}

var (
	sizingOnce   sync.Once
	sizingGraphs []sizingGraph
)

// kernelSizingGraphs builds, once per process, the two traffic shapes
// of the BFS benchmarks: a 512×512 grid level (df ≈ 4K, where per-call
// fixed costs rival the work) and an R-MAT scale-16 level (df ≈ 10⁶,
// where the work dominates).
func kernelSizingGraphs() []sizingGraph {
	sizingOnce.Do(func() {
		mesh := graphgen.Grid2D(512, 512)
		rmat := graphgen.RMAT(graphgen.DefaultRMAT(16), 1)
		sizingGraphs = []sizingGraph{
			{"mesh", mesh, nearestLevel(mesh, 256*512+256, 4096)},
			{"rmat", rmat, nearestLevel(rmat, maxDegreeVertex(rmat), 1_000_000)},
		}
	})
	return sizingGraphs
}

// nearestLevel returns the BFS level from source whose df is nearest
// target, as a frontier holding each vertex's own id (BFS semantics).
func nearestLevel(a *sparse.CSC, source sparse.Index, target int64) *sparse.SpVec {
	levels, ecc, _ := sparse.BFSLevels(a, source)
	work := make([]int64, ecc+1)
	for v, l := range levels {
		if l >= 0 {
			work[l] += a.ColLen(sparse.Index(v))
		}
	}
	best := 0
	for l := range work {
		if absDiff(work[l], target) < absDiff(work[best], target) {
			best = l
		}
	}
	x := sparse.NewSpVec(a.NumCols, 0)
	for v, l := range levels {
		if int(l) == best {
			x.Append(sparse.Index(v), float64(v))
		}
	}
	return x
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

func maxDegreeVertex(a *sparse.CSC) sparse.Index {
	var best sparse.Index
	for j := sparse.Index(0); j < a.NumCols; j++ {
		if a.ColLen(j) > a.ColLen(best) {
			best = j
		}
	}
	return best
}

// BenchmarkKernelSizing times one multiply of each sizing frontier at
// the default options (GOMAXPROCS threads, sized to df by the kernel)
// through the BFS semiring. Beyond ns/op and allocs/op it reports
// work/flop: Counters.Work per selected matrix entry, which reads ~3
// on the one-pass t = 1 path and ~4 when Algorithm 2's counting pass
// runs.
func BenchmarkKernelSizing(b *testing.B) {
	for _, g := range kernelSizingGraphs() {
		df := frontierWork(g.a, g.level)
		b.Run(g.name, func(b *testing.B) {
			ws := NewWorkspace(g.a.NumRows, 0)
			y := sparse.NewSpVec(0, 0)
			Multiply(g.a, g.level, y, semiring.MinSelect2nd, ws, Options{})
			ws.ResetCounters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Multiply(g.a, g.level, y, semiring.MinSelect2nd, ws, Options{})
			}
			b.StopTimer()
			c := ws.TotalCounters()
			b.ReportMetric(float64(c.Work())/float64(df)/float64(b.N), "work/flop")
			b.ReportMetric(float64(df), "df")
		})
	}
}

// BenchmarkKernelGrain is the sweep that places kernelGrain: random
// frontiers of growing df on both sizing graphs, each multiplied on
// two threads with the grain forced so that the kernel runs one thread
// with one bucket (t=1) or the paper's two-pass path (t=2). Run it at
// -cpu 2: two threads should start at the smallest df from which t=2
// is faster, which is 2·kernelGrain.
func BenchmarkKernelGrain(b *testing.B) {
	for _, g := range kernelSizingGraphs() {
		rng := rand.New(rand.NewSource(1))
		perm := rng.Perm(int(g.a.NumCols))
		for target := int64(4096); target <= 1024*1024; target *= 2 {
			x, df := frontierWithWork(g.a, perm, target)
			for _, t := range []int{1, 2} {
				grain := int64(1)
				if t == 1 {
					grain = math.MaxInt64
				}
				b.Run(fmt.Sprintf("%s/df=%d/t=%d", g.name, target, t), func(b *testing.B) {
					defer setGrain(grain)()
					ws := NewWorkspace(g.a.NumRows, 0)
					y := sparse.NewSpVec(0, 0)
					opt := Options{Threads: 2}
					Multiply(g.a, x, y, semiring.MinSelect2nd, ws, opt)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						Multiply(g.a, x, y, semiring.MinSelect2nd, ws, opt)
					}
					b.StopTimer()
					b.ReportMetric(float64(df), "df")
				})
			}
		}
	}
}

// frontierWithWork takes vertices in perm order until their df reaches
// target, returning them as a sorted frontier and its exact df.
func frontierWithWork(a *sparse.CSC, perm []int, target int64) (*sparse.SpVec, int64) {
	dense := make([]bool, a.NumCols)
	var df int64
	for _, v := range perm {
		if df >= target {
			break
		}
		dense[v] = true
		df += a.ColLen(sparse.Index(v))
	}
	x := sparse.NewSpVec(a.NumCols, 0)
	for v, in := range dense {
		if in {
			x.Append(sparse.Index(v), float64(v))
		}
	}
	return x, df
}
