// Seeded Zipfian key generator for the KV serving workload
// (docs/WORKLOADS.md).
//
// Ranks are drawn from the classic Zipf(s) distribution over a finite
// keyspace of N ranks: P(rank = r) = (r+1)^-s / H_{N,s} with the
// generalized harmonic number H_{N,s} = sum_{k=1..N} k^-s. Rank 0 is the
// hottest key. skew = 0 degenerates to the uniform distribution; the
// YCSB-style default is 0.99; serving studies use up to ~1.3 for
// hot-shard stress.
//
// Sampling is inversion on a precomputed CDF (binary search), driven by
// a private sim::Rng stream — same seed, same key sequence, bit-for-bit,
// on every platform. The CDF costs O(N) doubles and is built once per
// (keyspace, skew): every generator with those parameters shares one
// immutable table, which a mutex-guarded memo holds weakly, so the last
// generator to go frees it. The draw itself stays allocation-free.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.h"

namespace xlupc::dis {

class ZipfGenerator {
 public:
  /// Distribution over ranks [0, n) with exponent `skew` >= 0, sampled
  /// from a stream seeded with `seed`.
  ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed);

  /// Draw the next rank in [0, n): inversion of the CDF at a uniform
  /// deviate. Rank 0 is the most popular key.
  std::uint64_t next() {
    const double u = rng_.uniform();
    const std::vector<double>& cdf = table_->cdf;
    // First index whose CDF value exceeds u.
    std::uint64_t lo = 0;
    std::uint64_t hi = n_ - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (cdf[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Analytic probability mass of `rank` (for rank-frequency tests).
  double probability(std::uint64_t rank) const {
    if (rank >= n_) return 0.0;
    return std::pow(static_cast<double>(rank + 1), -skew_) /
           table_->harmonic;
  }

  std::uint64_t keyspace() const noexcept { return n_; }
  double skew() const noexcept { return skew_; }
  /// The CDF this generator samples, shared with every generator of the
  /// same keyspace and skew.
  const std::vector<double>& cdf() const noexcept { return table_->cdf; }

 private:
  struct Table {
    std::vector<double> cdf;
    double harmonic = 1.0;
  };
  /// The table of (n, skew), built on first use.
  static std::shared_ptr<const Table> table_for(std::uint64_t n,
                                                double skew);

  std::uint64_t n_;
  double skew_;
  std::shared_ptr<const Table> table_;
  sim::Rng rng_;
};

}  // namespace xlupc::dis
