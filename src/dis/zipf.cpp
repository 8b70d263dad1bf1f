#include "dis/zipf.h"

#include <bit>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace xlupc::dis {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double skew, std::uint64_t seed)
    : n_(n), skew_(skew), rng_(seed) {
  if (n == 0) throw std::invalid_argument("ZipfGenerator: empty keyspace");
  if (skew < 0.0) {
    throw std::invalid_argument("ZipfGenerator: negative skew");
  }
  table_ = table_for(n, skew);
}

std::shared_ptr<const ZipfGenerator::Table> ZipfGenerator::table_for(
    std::uint64_t n, double skew) {
  // Keyed by the skew's bits: the same double, the same table.
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  static std::mutex mu;
  static std::map<Key, std::weak_ptr<const Table>> memo;
  const std::lock_guard<std::mutex> lock(mu);
  for (auto it = memo.begin(); it != memo.end();) {
    it = it->second.expired() ? memo.erase(it) : std::next(it);
  }
  std::weak_ptr<const Table>& slot =
      memo[Key{n, std::bit_cast<std::uint64_t>(skew)}];
  if (auto held = slot.lock()) return held;
  auto table = std::make_shared<Table>();
  table->cdf.reserve(n);
  double h = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    h += std::pow(static_cast<double>(k), -skew);
    table->cdf.push_back(h);
  }
  table->harmonic = h;
  for (double& c : table->cdf) c /= h;
  table->cdf.back() = 1.0;  // guard against rounding at the tail
  slot = table;
  return table;
}

}  // namespace xlupc::dis
