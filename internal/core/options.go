// Package core implements SpMSpV-bucket, the work-efficient parallel
// sparse matrix–sparse vector multiplication algorithm of Azad & Buluç
// (IPDPS 2017) — the primary contribution of the paper this repository
// reproduces.
//
// The algorithm computes y ← A·x over a semiring in three steps plus a
// preprocessing pass:
//
//	Estimate (Algorithm 2): each thread counts how many scaled matrix
//	  entries it will write into each bucket, so that Step 1 can run
//	  without any synchronization. It runs only when t ≥ 2: a call
//	  sized to one thread writes all df entries into a single bucket
//	  whose size is df itself.
//	Step 1 (bucketing): the columns A(:,j) with x(j) ≠ 0 are scaled by
//	  x(j) and scattered into nb buckets by row id (bucket ⌊i·nb/m⌋),
//	  each thread writing through private, precomputed cursors.
//	Step 2 (merge): each bucket — a disjoint row range — is merged
//	  independently with a partially-initialized sparse accumulator,
//	  recording the unique row indices it produced.
//	Step 3 (output): a prefix sum over per-bucket unique counts places
//	  every bucket's results at its final offset in y without locks.
//
// Each call sizes t to its work: with df the number of matrix entries x
// selects (read from the column pointers in O(f)), t = clamp(df/grain,
// 1, min(Threads, f)), where the grain is the measured one-thread /
// two-thread crossover (see kernelGrain).
//
// Total work is O(df) for an Erdős–Rényi G(n, d/n) matrix and an input
// with f nonzeros, matching the problem's lower bound; the parallel
// depth is O(df/t) for t ≤ f threads.
package core

import "spmspv/internal/engine"

// Sched re-exports engine.Sched; the option set lives in
// internal/engine so that every registered algorithm shares one
// construction signature.
type Sched = engine.Sched

const (
	// SchedDynamic claims buckets via an atomic counter (the paper's
	// default, §III-A).
	SchedDynamic = engine.SchedDynamic
	// SchedStatic assigns contiguous bucket ranges up front.
	SchedStatic = engine.SchedStatic
	// SchedStealing runs Step 2 on the work-stealing executor with
	// entry-weighted initial shares.
	SchedStealing = engine.SchedStealing
)

// Options re-exports engine.Options, which documents each knob. The
// zero value asks for the paper's defaults.
type Options = engine.Options
