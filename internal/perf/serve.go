package perf

import (
	"sync/atomic"
	"time"
)

// ServeStats accumulates per-matrix request and latency counters for
// the serving layer: every multiply served against one registered
// matrix — direct, coalesced into a shared batch, or issued by a
// program op — lands here. All fields are atomics, so one ServeStats
// value is shared by every concurrent handler touching the matrix with
// no lock on the request path.
type ServeStats struct {
	requests  atomic.Int64
	failures  atomic.Int64
	coalesced atomic.Int64
	batches   atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64
	latencyNS atomic.Int64
	maxLatNS  atomic.Int64
}

// Observe records one served request and its wall-clock latency.
func (s *ServeStats) Observe(d time.Duration, failed bool) {
	s.requests.Add(1)
	if failed {
		s.failures.Add(1)
	}
	ns := d.Nanoseconds()
	s.latencyNS.Add(ns)
	for {
		cur := s.maxLatNS.Load()
		if ns <= cur || s.maxLatNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveBatch records one coalesced MultBatch flush covering the
// given number of single-vector requests. Flushes of one slot are the
// degenerate "no company arrived" case and are not counted as
// coalescing.
func (s *ServeStats) ObserveBatch(slots int) {
	if slots > 1 {
		s.batches.Add(1)
		s.coalesced.Add(int64(slots))
	}
}

// ObserveRetries records n retried calls — the sharded coordinator's
// requeue rounds land here, one count per shard call re-issued after a
// retryable failure.
func (s *ServeStats) ObserveRetries(n int) {
	if n > 0 {
		s.retries.Add(int64(n))
	}
}

// ObserveFailovers records n in-round replica failovers — a shard call
// abandoning one replica and moving to the next inside the same
// dispatch round. On the matrix's counters it measures how often
// replication absorbed a fault without burning a retry round; on a
// replica's counters it measures how often traffic failed over AWAY
// from that replica.
func (s *ServeStats) ObserveFailovers(n int) {
	if n > 0 {
		s.failovers.Add(int64(n))
	}
}

// ServeSnapshot is the JSON-ready reading of a ServeStats.
type ServeSnapshot struct {
	// Requests is the number of multiplies served (mult endpoint hits
	// plus program mult ops).
	Requests int64 `json:"requests"`
	// Failures is the subset of Requests that returned an error.
	Failures int64 `json:"failures"`
	// Coalesced is the number of requests that rode a shared MultBatch
	// instead of executing alone.
	Coalesced int64 `json:"coalesced"`
	// Batches is the number of multi-slot MultBatch flushes issued.
	Batches int64 `json:"batches"`
	// Retries is the number of calls re-issued after a retryable
	// failure (the sharded coordinator's requeue rounds).
	Retries int64 `json:"retries,omitempty"`
	// Failovers is the number of in-round replica failovers (replicated
	// shard groups absorbing a fault without a retry round).
	Failovers int64 `json:"failovers,omitempty"`
	// AvgLatencyNS / MaxLatencyNS summarize request wall-clock latency.
	AvgLatencyNS int64 `json:"avg_latency_ns"`
	MaxLatencyNS int64 `json:"max_latency_ns"`
}

// Snapshot reads the counters. The fields are loaded individually, so
// a snapshot taken during traffic is approximate (but each counter is
// exact).
func (s *ServeStats) Snapshot() ServeSnapshot {
	snap := ServeSnapshot{
		Requests:     s.requests.Load(),
		Failures:     s.failures.Load(),
		Coalesced:    s.coalesced.Load(),
		Batches:      s.batches.Load(),
		Retries:      s.retries.Load(),
		Failovers:    s.failovers.Load(),
		MaxLatencyNS: s.maxLatNS.Load(),
	}
	if snap.Requests > 0 {
		snap.AvgLatencyNS = s.latencyNS.Load() / snap.Requests
	}
	return snap
}
