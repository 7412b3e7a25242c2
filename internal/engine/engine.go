// Package engine defines the uniform SpMSpV engine abstraction: the
// Engine interface every algorithm implements, the Algorithm
// identifiers, the construction Options, and a registry through which
// implementations make themselves constructible.
//
// The registry inverts the dependency the facade used to hard-code: the
// implementing packages (internal/core for SpMSpV-bucket,
// internal/baselines for the Table I competitors) register a
// constructor from init, and every consumer — the public facade,
// internal/algorithms, internal/bench, cmd/ — builds engines through
// New without knowing the concrete types. Importing an implementing
// package (directly or blank) is what populates the registry, the same
// pattern as database/sql drivers.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spmspv/internal/perf"
	"spmspv/internal/semiring"
	"spmspv/internal/sparse"
)

// Engine is the uniform contract of one SpMSpV implementation bound to
// one matrix: compute y ← A·x over a semiring, and report the
// deterministic work counters behind the paper's work-efficiency
// analysis.
//
// Concurrency: every Engine constructed through this registry is safe
// for concurrent Multiply calls from multiple goroutines; per-call
// scratch state is pooled internally and counters are aggregated
// race-free.
type Engine interface {
	// Multiply computes y ← A·x over sr. y is reset and filled.
	Multiply(x, y *sparse.SpVec, sr semiring.Semiring)
	// Counters returns the work performed since the last ResetCounters.
	Counters() perf.Counters
	// ResetCounters zeroes the work counters.
	ResetCounters()
	// Name identifies the algorithm in benchmark tables.
	Name() string
}

// MaskedEngine is the optional extension for engines that push the
// output mask down into the merge step (paper §V future work);
// internal/core's bucket engine implements it.
type MaskedEngine interface {
	Engine
	MultiplyMasked(x, y *sparse.SpVec, sr semiring.Semiring, mask *sparse.BitVec, complement bool)
}

// Rep identifies a frontier (input-vector) representation. The paper's
// §II-C names the two in use: the compact list of (index, value) pairs
// that vector-driven algorithms scan, and the O(n) bitvector that
// GraphMat's matrix-driven loop probes.
type Rep int

const (
	// RepList is the list format (sparse.SpVec).
	RepList Rep = iota
	// RepBitmap is the bitvector format (sparse.BitVec).
	RepBitmap
)

// String names the representation.
func (r Rep) String() string {
	if r == RepBitmap {
		return "bitmap"
	}
	return "list"
}

// FrontierEngine is the optional extension for engines that accept a
// dual-representation Frontier directly and declare which
// representation their inner loop natively consumes. Callers holding a
// Frontier should route through MultiplyFrontier so a representation
// materialized once (e.g. the bitmap a hybrid engine builds for its
// matrix-driven side) is reused instead of rebuilt per call; callers
// holding a plain list vector lose nothing by calling Multiply.
type FrontierEngine interface {
	Engine
	// PreferredRep reports the representation the engine consumes
	// natively — the one a caller should keep materialized when it
	// feeds the same frontier to this engine repeatedly.
	PreferredRep() Rep
	// MultiplyFrontier computes y ← A·x over sr, reading whichever
	// representation of x the engine prefers (materializing it at most
	// once on the shared Frontier).
	MultiplyFrontier(x *sparse.Frontier, y *sparse.SpVec, sr semiring.Semiring)
}

// OutputEngine is the optional extension for engines whose result is
// written into a sparse.Frontier rather than a bare list vector —
// outputs made symmetric with inputs. An OutputEngine drives the
// frontier's BeginOutput/FinishOutput protocol itself and, when its
// output pass already visits a bitmap-shaped structure, emits the
// output bitmap natively in the same pass — so a consumer that prefers
// the bitmap (GraphMat's matrix-driven loop, a hybrid engine's dense
// levels) reads it with no list→bitmap conversion ever running.
// Engines that only speak lists are served by CompilePlan's list
// fallback, which runs the list multiply into the frontier and leaves
// the bitmap lazy.
type OutputEngine interface {
	Engine
	// OutputRep reports the richest representation MultiplyInto
	// populates natively: RepBitmap means the output frontier carries
	// list and bitmap after one pass; RepList means list only (the
	// bitmap, if a consumer demands it, is a counted conversion).
	OutputRep() Rep
	// MultiplyInto computes y ← A·x over sr, writing the result into
	// the output frontier (list authoritative, bitmap populated
	// natively when OutputRep is RepBitmap). x and y must not alias.
	MultiplyInto(x, y *sparse.Frontier, sr semiring.Semiring)
}

// MaskedOutputEngine combines the masked and output extensions: the
// output mask is pushed down into the engine's merge/accumulate step
// (entries the mask kills never reach the output) AND the surviving
// result is emitted in frontier form. This is the §V GraphBLAS
// "masked SpMSpV" primitive in the shape graph algorithms compose:
// BFS's visited filter becomes part of the multiply and the filtered
// output is immediately a valid next frontier.
type MaskedOutputEngine interface {
	OutputEngine
	// MultiplyIntoMasked computes y ← ⟨A·x, mask⟩ into the output
	// frontier; complement inverts the mask test.
	MultiplyIntoMasked(x, y *sparse.Frontier, sr semiring.Semiring, mask *sparse.BitVec, complement bool)
}

// OutputRepOf reports the representation e emits natively into output
// frontiers: RepList for engines served by the fallback wrapper.
func OutputRepOf(e Engine) Rep {
	if oe, ok := e.(OutputEngine); ok {
		return oe.OutputRep()
	}
	return RepList
}

// Frontier-output execution — which of the optional interfaces above a
// given engine implements, and how to degrade when it doesn't — is
// compiled once per (engine, shape) by CompilePlan (plan.go); the Plan
// is the uniform entry point frontier pipelines use, so every
// registered engine writes frontier outputs with no per-call type
// assertions.

// BatchOutputEngine is the optional extension for engines whose
// batched multiply writes frontier-form outputs natively: the batched
// Step 3 emits list and bitmap in one pass per slot, and the masked
// variant pushes one output mask per slot into the batched merge. This
// is what makes multi-source direction-optimized pipelines (masked
// MultiBFS) conversion-free: every slot's output bitmap is ready for
// the next level's matrix-driven side without a list→bitmap conversion
// ever running.
type BatchOutputEngine interface {
	Engine
	// MultiplyBatchInto computes ys[q] ← A·xs[q] into the output
	// frontiers, emitting each slot's bitmap natively.
	MultiplyBatchInto(xs, ys []*sparse.Frontier, sr semiring.Semiring)
	// MultiplyBatchIntoMasked computes ys[q] ← ⟨A·xs[q], masks[q]⟩ into
	// the output frontiers (nil slots run unmasked); complement inverts
	// every mask test.
	MultiplyBatchIntoMasked(xs, ys []*sparse.Frontier, sr semiring.Semiring, masks []*sparse.BitVec, complement bool)
}

// BatchEngine is the optional extension for engines that multiply a
// batch of frontiers against the matrix in one pass, amortizing
// per-call setup (the bucket engine's Estimate/bucket-sizing pass,
// workspace checkout, scheduling) across the batch — the SpGEMM-style
// batching that serves multi-source BFS and other multi-frontier
// workloads.
type BatchEngine interface {
	Engine
	// MultiplyBatch computes ys[q] ← A·xs[q] for every q over sr.
	// len(xs) must equal len(ys); the xs must not alias the ys.
	MultiplyBatch(xs, ys []*sparse.SpVec, sr semiring.Semiring)
}

// Algorithm selects an SpMSpV engine.
type Algorithm int

const (
	// Bucket is the paper's SpMSpV-bucket algorithm (default; the only
	// work-efficient, synchronization-avoiding choice).
	Bucket Algorithm = iota
	// CombBLASSPA is the row-split, fully-initialized-SPA baseline.
	CombBLASSPA
	// CombBLASHeap is the row-split heap-merge baseline.
	CombBLASHeap
	// GraphMat is the matrix-driven, bitvector-input baseline.
	GraphMat
	// SortBased is the gather–radix-sort–reduce baseline.
	SortBased
	// Hybrid switches per call between the vector-driven bucket
	// algorithm and the matrix-driven GraphMat algorithm on input
	// density (the paper's §V direction-switch extension).
	Hybrid
)

// String names the algorithm as registered (the paper's Table I names),
// or "unknown" when nothing is registered under it.
func (a Algorithm) String() string {
	regMu.RLock()
	defer regMu.RUnlock()
	if e, ok := registry[a]; ok {
		return e.name
	}
	return "unknown"
}

// Constructor builds an engine bound to a matrix. Construction performs
// the per-matrix preprocessing (row-splitting, workspace sizing) that
// the paper excludes from multiply timings.
type Constructor func(a *sparse.CSC, opt Options) Engine

type regEntry struct {
	name    string
	ctor    Constructor
	aliases []string
}

var (
	regMu    sync.RWMutex
	registry = map[Algorithm]regEntry{}
)

// Register makes an algorithm constructible through New and resolvable
// through Parse. It is intended to be called from the implementing
// package's init; registering the same Algorithm twice panics, as with
// database/sql drivers.
//
// aliases are optional short CLI names ("bucket", "sort") registered
// alongside the canonical Table I name: Parse accepts them and Names
// lists them first, so the one registration call is the single source
// of truth for construction, parsing, and flag help — there is no
// separate alias table to keep in sync.
func Register(alg Algorithm, name string, ctor Constructor, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[alg]; dup {
		panic(fmt.Sprintf("engine: Register called twice for %q", name))
	}
	if ctor == nil {
		panic("engine: Register with nil constructor")
	}
	registry[alg] = regEntry{name: name, ctor: ctor, aliases: aliases}
}

// Parse resolves an engine name — a registered canonical name matched
// case-insensitively ("CombBLAS-SPA", "graphmat", ...) or a registered
// short alias ("bucket", "sort", "hybrid") — to its Algorithm. Anything
// that registers is reachable here without touching this function. An
// unknown name returns (0, false); callers must check ok rather than
// use the zero Algorithm, which happens to be Bucket.
func Parse(name string) (Algorithm, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, alg := range registeredLocked() {
		e := registry[alg]
		if strings.EqualFold(e.name, name) {
			return alg, true
		}
		for _, a := range e.aliases {
			if strings.EqualFold(a, name) {
				return alg, true
			}
		}
	}
	return 0, false
}

// Names returns every name Parse accepts, in a stable order: the
// registered short aliases first (in ascending Algorithm order), then
// the canonical names (lowercased) not already covered by an alias.
// CLIs derive their -engine/-algorithm help from this, so a newly
// registered engine shows up without touching any flag text.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		n = strings.ToLower(n)
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	algs := registeredLocked()
	for _, alg := range algs {
		for _, a := range registry[alg].aliases {
			add(a)
		}
	}
	for _, alg := range algs {
		add(registry[alg].name)
	}
	return names
}

// registeredLocked returns the registered algorithms in ascending
// order; the caller must hold regMu.
func registeredLocked() []Algorithm {
	algs := make([]Algorithm, 0, len(registry))
	for a := range registry {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i] < algs[j] })
	return algs
}

// New constructs the selected algorithm's engine for a. It returns an
// error when nothing is registered under alg — usually a missing import
// of the implementing package.
func New(a *sparse.CSC, alg Algorithm, opt Options) (Engine, error) {
	regMu.RLock()
	e, ok := registry[alg]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: no constructor registered for algorithm %d (missing import of the implementing package?)", int(alg))
	}
	return e.ctor(a, opt), nil
}

// Registered returns the registered algorithm identifiers in ascending
// order.
func Registered() []Algorithm {
	regMu.RLock()
	defer regMu.RUnlock()
	return registeredLocked()
}
