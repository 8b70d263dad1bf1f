// Distributed key-value store over the PGAS runtime (docs/WORKLOADS.md).
//
// A node-sharded open-addressing hash table whose buckets live in one
// block-cyclic shared array: bucket b is `1 + value_words` consecutive
// 64-bit words ([key | value...]) homed on thread (b / block_buckets) %
// THREADS — groups of block_buckets buckets round-robin across the
// cluster, so every node serves a slice of every hash range (the
// memcached-over-PGAS shape of ROADMAP item 1).
//
// Concurrency is built on the PR 8 remote-atomics pipeline:
//  * claim-or-find is ONE round trip: CAS(key_word: 0 -> key) applied
//    indivisibly at the bucket's home returns the old word, so a losing
//    CAS doubles as the probe read (old == key: ours, update; old ==
//    other: collision, probe on);
//  * single-word values then ride a plain PUT / GET — the lock-free
//    fast path;
//  * multi-word values fall back to a dis::TicketLock around the value
//    words (GETs too: a torn multi-word read is unacceptable, a
//    serialized one is the documented fallback cost).
//
// GETs are served by whichever access path the RuntimeConfig selects:
// warm address cache -> one-sided RDMA (zero home-CPU on IB), cache
// disabled -> the two-sided AM path — the Brock et al. RDMA-vs-RPC
// tradeoff bench/kvstore_sweep measures under Zipfian load.
//
// Every remote access uses the typed-status surface (docs/FAULTS.md):
// a bucket homed on a crash-stopped node surfaces KvStatus::kPeerFailed
// to the client instead of throwing out of (or wedging) the open-loop
// generator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/access_path.h"
#include "core/api.h"
#include "core/run_report.h"
#include "dis/latency_histogram.h"
#include "dis/ticket_lock.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/time.h"

namespace xlupc::core {
class UpcThread;
}

namespace xlupc::dis {

/// Outcome of one KV operation.
enum class KvStatus : std::uint8_t {
  kOk = 0,
  kNotFound,    ///< GET: no bucket holds the key
  kFull,        ///< PUT: every probed bucket holds some other key
  kTimeout,     ///< transport retransmission budget exhausted (kTimeout)
  kPeerFailed,  ///< the bucket's (or lock's) home node crash-stopped
};

const char* to_string(KvStatus st);

struct KvStoreConfig {
  /// Bucket count; rounded up to the next power of two.
  std::uint64_t capacity = 1024;
  /// 64-bit words per value. 1 = lock-free fast path; more engages the
  /// TicketLock fallback for every touch of the value words.
  std::uint32_t value_words = 1;
  /// Buckets per block of the block-cyclic layout (shard granularity).
  std::uint32_t block_buckets = 8;
};

/// Client-side counters of one thread's KvStore copy.
struct KvStoreStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t hits = 0;        ///< GETs that found the key
  std::uint64_t misses = 0;      ///< GETs that did not
  std::uint64_t inserts = 0;     ///< PUTs that claimed a fresh bucket
  std::uint64_t updates = 0;     ///< PUTs that overwrote an existing key
  std::uint64_t probes = 0;      ///< bucket probes beyond the first
  std::uint64_t cas_lost = 0;    ///< claim CASes that found another key
  std::uint64_t lock_fallbacks = 0;  ///< ops through the TicketLock path
  std::uint64_t peer_failed = 0;     ///< ops refused by a dead home
  std::uint64_t timeouts = 0;        ///< ops lost to the retransmit budget
  // Per-tier serving counts: where the resolved bucket lived relative to
  // the calling client.
  std::uint64_t tier_local = 0;   ///< own thread's shard
  std::uint64_t tier_shm = 0;     ///< same node, different thread
  std::uint64_t tier_remote = 0;  ///< remote node

  void merge(const KvStoreStats& o);
};

/// Report keys of KvStoreStats, summed over clients; folded by
/// fold_kv_metrics.
inline constexpr sim::MetricRow<KvStoreStats> kKvStoreRows[] = {
    {"kv.gets", &KvStoreStats::gets},
    {"kv.puts", &KvStoreStats::puts},
    {"kv.hits", &KvStoreStats::hits},
    {"kv.misses", &KvStoreStats::misses},
    {"kv.inserts", &KvStoreStats::inserts},
    {"kv.updates", &KvStoreStats::updates},
    {"kv.probes", &KvStoreStats::probes},
    {"kv.cas_lost", &KvStoreStats::cas_lost},
    {"kv.lock_fallbacks", &KvStoreStats::lock_fallbacks},
    {"kv.errors.peer_failed", &KvStoreStats::peer_failed},
    {"kv.errors.timeout", &KvStoreStats::timeouts},
    {"kv.tier.local", &KvStoreStats::tier_local},
    {"kv.tier.shm", &KvStoreStats::tier_shm},
    {"kv.tier.remote", &KvStoreStats::tier_remote},
};

/// Shared DHT handle. Construction is collective; each thread then
/// operates on its own KvStore copy (statistics and the lock-fallback
/// ticket state are per-copy).
class KvStore {
 public:
  KvStore() = default;

  static sim::Task<KvStore> create(core::UpcThread& th, KvStoreConfig cfg);

  /// Look the key up; on kOk the value lands in `value` (all
  /// value_words of it — the span must be at least that long).
  sim::Task<KvStatus> get(core::UpcThread& th, std::uint64_t key,
                          std::span<std::uint64_t> value);
  /// Single-word convenience overload.
  sim::Task<KvStatus> get(core::UpcThread& th, std::uint64_t key,
                          std::uint64_t* value);

  /// Insert or update. Keys must be nonzero (0 marks an empty bucket).
  sim::Task<KvStatus> put(core::UpcThread& th, std::uint64_t key,
                          std::span<const std::uint64_t> value);
  sim::Task<KvStatus> put(core::UpcThread& th, std::uint64_t key,
                          std::uint64_t value);

  const KvStoreStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = KvStoreStats{}; }

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint32_t value_words() const noexcept { return cfg_.value_words; }
  const core::ArrayDesc& array() const noexcept { return buckets_; }

  /// The bucket index key hashes to (before probing).
  std::uint64_t bucket_of(std::uint64_t key) const noexcept {
    return mix64(key) & mask_;
  }

  /// The thread whose shard serves the key's first-probe bucket (the
  /// block-cyclic home: bucket b lives on thread (b / block_buckets) %
  /// THREADS). Collision probing can land a key one block over, but the
  /// first probe is where its traffic converges — which is what the
  /// N->1 incast workload selects keys by.
  std::uint32_t home_thread(std::uint64_t key,
                            std::uint32_t threads) const noexcept {
    return static_cast<std::uint32_t>(
        (bucket_of(key) / cfg_.block_buckets) % threads);
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  static std::uint64_t mix64(std::uint64_t x) noexcept {
    // splitmix64 finalizer — the same deterministic mix the Rng seeds use.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint64_t words_per_bucket() const noexcept {
    return 1 + cfg_.value_words;
  }
  std::uint64_t key_elem(std::uint64_t bucket) const noexcept {
    return bucket * words_per_bucket();
  }
  void count_tier(const core::UpcThread& th, std::uint64_t bucket);
  KvStatus note_error(core::OpStatus st);

  core::ArrayDesc buckets_;
  TicketLock lock_;  ///< multi-slot fallback, homed at thread 0
  KvStoreConfig cfg_;
  std::uint64_t capacity_ = 0;  ///< rounded to a power of two
  std::uint64_t mask_ = 0;
  KvStoreStats stats_;
};

// --- open-loop serving workload (docs/WORKLOADS.md) ---------------------

/// Which path serves the data-movement side of the workload's ops.
enum class KvAccessPath : std::uint8_t {
  kRdma,  ///< warm address cache: one-sided GET/PUT (cache forced on)
  kAm,    ///< cache disabled: every access takes the two-sided AM path
};

const char* to_string(KvAccessPath p);

struct KvWorkloadParams {
  KvStoreConfig store{/*capacity=*/2048, /*value_words=*/1,
                      /*block_buckets=*/8};
  /// Keys 1..keyspace are preloaded before the measured phase, so the
  /// measured mix is hits/updates (misses only under faults).
  std::uint64_t keyspace = 512;
  /// Zipf exponent of the per-client key streams (0 = uniform).
  double zipf_skew = 0.99;
  /// Fraction of ops that are PUTs (drawn per op from the client's
  /// seeded stream); the rest are GETs.
  double put_fraction = 0.1;
  /// Ops per client in the measured open-loop phase.
  std::uint32_t ops_per_thread = 96;
  /// Open-loop period: client k's op i is *scheduled* at
  /// t0 + i * interarrival, and its latency is measured from that
  /// scheduled instant — queueing delay from falling behind the offered
  /// rate is part of the latency, as in any open-loop serving study.
  sim::Duration interarrival = sim::us(40.0);
  KvAccessPath access_path = KvAccessPath::kRdma;
  /// N->1 hot-shard incast (docs/FABRIC.md): when >= 0, every client
  /// draws its keys only from those homed on this thread's shard, so the
  /// whole cluster's traffic converges on one node — the fan-in scenario
  /// bench/congestion_sweep measures against the finite-buffer fabric.
  /// -1 (default) keeps the whole-keyspace Zipfian stream.
  std::int32_t incast_home = -1;
};

struct KvWorkloadResult {
  LatencyHistogram get_latency;  ///< merged across clients
  LatencyHistogram put_latency;
  KvStoreStats stats;            ///< merged across clients
  double elapsed_us = 0.0;       ///< measured window (open-loop phase)
  double sustained_ops_per_s = 0.0;  ///< completed ops / window
  double offered_ops_per_s = 0.0;    ///< clients / interarrival
  core::RunReport report;  ///< with the gated kv.* keys folded in
};

/// Run the open-loop Zipfian serving workload: every thread is a client
/// of the shared store (and a server of its shard). The RuntimeConfig's
/// cache settings are overridden from `p.access_path`.
KvWorkloadResult run_kv_workload(core::RuntimeConfig cfg,
                                 const KvWorkloadParams& p);

/// Fold a finished workload's statistics into the registry as the gated
/// kv.* keys (only ever called when the workload issued ops, so KV-free
/// reports stay byte-identical). Exposed for tests.
void fold_kv_metrics(sim::MetricsRegistry& reg, const KvStoreStats& stats,
                     const LatencyHistogram& get_latency,
                     const LatencyHistogram& put_latency,
                     double sustained_ops_per_s);

}  // namespace xlupc::dis
