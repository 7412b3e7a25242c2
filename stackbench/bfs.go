package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"spmspv"
	"spmspv/internal/engine"
)

// bfsStack serves in-process spmspv.BFS from one Multiplier with the
// library defaults (bucket engine, GOMAXPROCS threads).
type bfsStack struct {
	in  *bfsInputs
	m   *spmspv.Multiplier
	rec *recorder

	c0    spmspv.Counters
	plans int64
	mults atomic.Int64 // SpMSpV calls of the checked searches
	cfg   config
}

func (s *bfsStack) source(k int) (int, spmspv.Index) {
	i := k % len(s.in.sources)
	return i, s.in.sources[i]
}

// setup builds the Multiplier and answers the first search, which also
// sizes the kernel's workspaces.
func (s *bfsStack) setup() (any, error) {
	m, err := spmspv.NewMultiplier(s.in.a)
	if err != nil {
		return nil, err
	}
	s.m = m
	return spmspv.BFS(m, s.in.sources[0]), nil
}

func (s *bfsStack) op(_ context.Context, _, k int) (any, error) {
	_, src := s.source(k)
	return spmspv.BFS(s.m, src), nil
}

func (s *bfsStack) check(_, k int, out any) (int64, error) {
	i, _ := s.source(k)
	res := out.(*spmspv.BFSResult)
	s.mults.Add(int64(len(res.FrontierSizes)))
	return s.in.edges[i], s.in.check(i, res.Levels, res.Parents)
}

func (s *bfsStack) key(_, k int) int {
	i, _ := s.source(k)
	return i
}

func (s *bfsStack) verify() error { return s.in.verify() }

func (s *bfsStack) mark() {
	s.c0 = s.m.Counters()
	s.plans = engine.PlanCompilations()
	s.mults.Store(0)
}

func (s *bfsStack) layers(l map[string]float64, _ []span, lp loopStats) error {
	ops := len(lp.lat)
	counterLayers(l, counterDelta(s.c0, s.m.Counters()), ops)
	l["engine.plan_compilations_per_op"] = float64(engine.PlanCompilations()-s.plans) / float64(ops)

	l["kernel.mults_per_op"] = float64(s.mults.Load()) / float64(ops)

	var calls []kernelCall
	for i := 0; i < min(s.cfg.size.replayOps, len(s.in.sources)); i++ {
		for _, x := range levelFrontiers(serialBFS(s.in.a, s.in.sources[i])) {
			calls = append(calls, kernelCall{a: s.in.a, x: x, sr: spmspv.MinSelect2nd})
		}
	}
	replayKernel(l, calls, s.rec)

	m1, err := spmspv.NewMultiplier(s.in.a, spmspv.WithThreads(1))
	if err != nil {
		return err
	}
	l["par.speedup"] = speedup(s.cfg.size.speedupOps, func(k int, one bool) {
		m := s.m
		if one {
			m = m1
		}
		_, src := s.source(k)
		spmspv.BFS(m, src)
	})
	return nil
}

func (s *bfsStack) close() {}

// bfsWorkload is an in-process BFS workload on graph(seed) with
// seeded sources drawn from strata.
func bfsWorkload(name, why string, graph func(sz size, seed int64) *spmspv.Matrix, sources func(sz size) int,
	strata func(a *spmspv.Matrix, sz size) [][]spmspv.Index) *workload {
	return &workload{
		name: name, why: why, callers: 1, opSpan: "bfs.op",
		inputs: func(cfg config) (func(*recorder) (stack, error), []matrixSize, error) {
			a := graph(cfg.size, cfg.seed)
			in := newBFSInputs(a, cfg.seed, sources(cfg.size), strata(a, cfg.size))
			if len(in.sources) == 0 {
				return nil, nil, fmt.Errorf("graph has no vertices")
			}
			open := func(rec *recorder) (stack, error) {
				return &bfsStack{in: in, rec: rec, cfg: cfg}, nil
			}
			return open, []matrixSize{sizeOf(name, a)}, nil
		},
	}
}
