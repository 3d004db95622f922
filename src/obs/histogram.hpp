// Fixed-bucket log-scale histograms: the distribution view Counter can't give.
//
// A Counter can say "negotiation ran 40k iterations total"; it cannot say the
// per-run distribution is bimodal, which is exactly what matters when a
// scheduling change helps the median and wrecks the tail. Histogram keeps the
// Counter cost model — observe() is branch-free bucket selection (exponent +
// top mantissa bits, no libm) plus two relaxed atomic adds — so it is always
// on. A per-item hot path (one observe per routed edge) still pays for it:
// count there with a local and add it to a Counter once per phase.
//
// Buckets are log-spaced with 4 sub-buckets per power of two (relative error
// of a reconstructed quantile ≤ ~12.5%), spanning 2^-28 (~3.7e-9 s, below
// any timed span) to 2^36 (~6.9e10; snapshot bytes on a large design). Values below the range, zero, negatives, and NaN land in the
// underflow bucket; values above (and +inf) in the overflow bucket.
//
// snapshot() interpolates p50/p90/p99 inside the owning bucket. A concurrent
// snapshot may see a partially applied observe (count and sum drift by one
// event) — quantiles are statistics, not ledger balances, and the hammer test
// pins that a quiesced histogram is exact.
//
//   static obs::Histogram& h =
//       obs::Metrics::instance().histogram("route.negotiation_iters_per_call");
//   h.observe(static_cast<double>(stats.iterations));
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gnnmls::obs {

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

class Histogram {
 public:
  static constexpr int kSubBuckets = 4;  // per power of two (2 mantissa bits)
  static constexpr int kMinExp = -28;
  static constexpr int kMaxExp = 36;
  // [0] underflow, [1 .. N-2] log buckets, [N-1] overflow.
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void observe(double v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v > 0.0 ? v : 0.0, std::memory_order_relaxed);  // C++20 atomic<double>
  }

  HistogramSnapshot snapshot() const;
  void reset();

  // Exposed for tests: the bucket index a value lands in, and the bucket's
  // lower edge (bucket_lower(i) <= v < bucket_lower(i+1) for in-range v).
  static std::size_t bucket_of(double v);
  static double bucket_lower(std::size_t bucket);

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

}  // namespace gnnmls::obs
