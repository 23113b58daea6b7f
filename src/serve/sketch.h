// Constant-memory streaming percentile sketches for the serving fleet.
//
// An exact MetricsSink stores every completed-request latency and sorts
// once at finalize — exact, but O(requests) memory, which caps rate
// sweeps around 10^6 requests. The fleet sweeps (serve/cluster.h) target
// 10^7+ requests per sweep point, so their sinks estimate percentiles with
// the P² algorithm (Jain & Chlamtac, CACM 1985): five markers per tracked
// quantile, updated per observation with a piecewise-parabolic height
// adjustment. Memory is O(1) per quantile and independent of the request
// count; accuracy is bounded against exact sort by serve_sketch_test on
// constant, bimodal, and heavy-tail inputs.
//
// Determinism contract: every estimate is a pure function of the observed
// sample sequence (plain double arithmetic, no RNG, no ordering by
// address), and merge() is a pure function of (destination, source) — in
// that order. Merging is NOT associative in floating point (weighted
// marker averages round differently under regrouping), so callers must
// merge per-shard sketches in a fixed order (shard index), never in
// completion or thread order. CI byte-diffs fleet reports across
// --threads=1/2/4 to catch exactly this class of bug.
#pragma once

#include <cstdint>
#include <vector>

namespace vitbit::serve {

// One P² estimator for the q-quantile (q in (0, 1)) of a stream of
// doubles. Exact for the first four observations (falls back to sorting
// the buffered samples); switches to marker tracking at five.
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void add(double x);
  // Current estimate; 0 when no samples have been observed.
  double value() const;
  std::uint64_t count() const { return count_; }
  double quantile() const { return q_; }

  // Folds `other` into this estimator: counts add, the min/max markers
  // take the elementwise extreme, and interior marker heights combine as
  // count-weighted averages. When both sides are still in their exact
  // start-up buffers the merge concatenates the buffers and stays exact
  // (no matter how many samples that leaves buffered); when exactly one
  // side is established the buffered side is replayed sample by sample
  // into it. Deterministic for a fixed merge order; see the header
  // comment for why the order is part of the contract.
  void merge(const P2Quantile& other);

 private:
  bool established() const;
  void add_established(double x);
  // Leaves buffer mode: sorts the buffered samples (five on the classic
  // start-up path, possibly more after a buffered+buffered merge) into
  // the five markers at their nearest-rank positions.
  void establish();

  double q_ = 0.5;
  std::uint64_t count_ = 0;
  // Start-up buffer (exact while un-established); markers afterwards.
  std::vector<double> buffer_;
  double heights_[5] = {};   // marker heights q_0..q_4
  double positions_[5] = {};  // marker positions n_0..n_4 (1-based)
  double desired_[5] = {};    // desired positions n'_0..n'_4
  double increments_[5] = {};  // dn'_i per observation
};

// The latency sketch a streaming MetricsSink keeps instead of the raw
// sample vector: P² estimators for the percentiles serve reports carry
// (p50/p90/p95/p99) plus exact count, min, and max. Samples are integer
// virtual microseconds; estimates round back to the nearest microsecond.
class LatencySketch {
 public:
  LatencySketch();

  void add(std::uint64_t latency_us);
  // Folds `other` in (see P2Quantile::merge for the order contract).
  void merge(const LatencySketch& other);

  std::uint64_t count() const { return count_; }
  // Exact extremes; 0 when empty (the MetricsSink empty convention).
  std::uint64_t min_us() const { return count_ == 0 ? 0 : min_us_; }
  std::uint64_t max_us() const { return max_us_; }
  // Estimated percentile, rounded to integer microseconds and clamped to
  // the exact [min, max] envelope. p must be one of 50, 90, 95, 99 (the
  // tracked set), or 0 / 100 (exact min / max).
  std::uint64_t percentile_us(double p) const;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t min_us_ = 0;
  std::uint64_t max_us_ = 0;
  std::vector<P2Quantile> quantiles_;
};

}  // namespace vitbit::serve
