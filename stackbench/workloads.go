package main

import "spmspv"

// workloads are the benchmark's workloads, in BENCHMARK.json order.
// Each stresses a different layer; the why strings are the ones
// BENCHMARK.json records.
var workloads = []*workload{
	bfsWorkload("bfs-rmat",
		"Scale-free R-MAT scale 17 (3.7M nnz, far above L2): big skewed frontiers, kernel and executor do the work. In-process BFS, closed loop, 1 caller.",
		func(sz size, seed int64) *spmspv.Matrix { return spmspv.RMAT(spmspv.DefaultRMAT(sz.rmatScale), seed) },
		func(sz size) int { return sz.rmatSources },
		func(a *spmspv.Matrix, _ size) [][]spmspv.Index { return giantStratum(a) }),
	bfsWorkload("bfs-mesh",
		"High-diameter 512x512 grid: ~800 levels with frontiers under 1K, so per-call Estimate and dispatch dominate. In-process BFS, closed loop, 1 caller.",
		func(sz size, _ int64) *spmspv.Matrix { return spmspv.Grid2D(sz.meshSide, sz.meshSide) },
		func(sz size) int { return sz.meshSources },
		func(_ *spmspv.Matrix, sz size) [][]spmspv.Index { return gridStrata(sz.meshSide, sz.meshSources) }),
	serveMultWorkload("serve-mult",
		"Served 16-nnz multiplies on R-MAT 16 over loopback binary wire: wire, HTTP and the coalescer do the work. Closed loop, 2 callers, one Client each."),
	serveProgramWorkload("serve-bfs-program",
		"Stored BFSProgram invoked over loopback on a 2-band ShardedStore (64x64 grid): dataflow, scatter and gather, no coalescing. Closed loop, 1 caller."),
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
