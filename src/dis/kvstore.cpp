#include "dis/kvstore.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/runtime.h"
#include "dis/zipf.h"
#include "sim/rng.h"

namespace xlupc::dis {

using core::OpStatus;
using core::UpcThread;
using sim::Task;

const char* to_string(KvStatus st) {
  switch (st) {
    case KvStatus::kOk:
      return "ok";
    case KvStatus::kNotFound:
      return "not_found";
    case KvStatus::kFull:
      return "full";
    case KvStatus::kTimeout:
      return "timeout";
    case KvStatus::kPeerFailed:
      return "peer_failed";
  }
  return "?";
}

const char* to_string(KvAccessPath p) {
  return p == KvAccessPath::kRdma ? "rdma" : "am";
}

void KvStoreStats::merge(const KvStoreStats& o) {
  sim::merge(*this, o, kKvStoreRows);
}

Task<KvStore> KvStore::create(UpcThread& th, KvStoreConfig cfg) {
  if (cfg.capacity == 0) {
    throw std::invalid_argument("KvStore: zero capacity");
  }
  if (cfg.value_words == 0) {
    throw std::invalid_argument("KvStore: zero value words");
  }
  if (cfg.block_buckets == 0) {
    throw std::invalid_argument("KvStore: zero block_buckets");
  }
  KvStore kv;
  kv.cfg_ = cfg;
  kv.capacity_ = std::bit_ceil(cfg.capacity);
  kv.mask_ = kv.capacity_ - 1;
  const std::uint64_t wpb = kv.words_per_bucket();
  // Whole buckets per layout block, so a bucket never straddles an
  // ownership boundary and a GET can fetch [key | value...] in one op.
  kv.buckets_ = co_await th.all_alloc(kv.capacity_ * wpb,
                                      sizeof(std::uint64_t),
                                      cfg.block_buckets * wpb);
  kv.lock_ = co_await TicketLock::create(th);
  co_return kv;
}

void KvStore::count_tier(const UpcThread& th, std::uint64_t bucket) {
  const std::uint64_t e = key_elem(bucket);
  if (th.threadof(buckets_, e) == th.id()) {
    ++stats_.tier_local;
  } else if (th.nodeof(buckets_, e) == th.node()) {
    ++stats_.tier_shm;
  } else {
    ++stats_.tier_remote;
  }
}

KvStatus KvStore::note_error(OpStatus st) {
  if (st == OpStatus::kPeerFailed) {
    ++stats_.peer_failed;
    return KvStatus::kPeerFailed;
  }
  ++stats_.timeouts;
  return KvStatus::kTimeout;
}

Task<KvStatus> KvStore::get(UpcThread& th, std::uint64_t key,
                            std::span<std::uint64_t> value) {
  if (value.size() < cfg_.value_words) {
    throw std::invalid_argument("KvStore::get: value span too short");
  }
  ++stats_.gets;
  const bool fallback = cfg_.value_words > 1;
  if (fallback) {
    // Multi-word values: serialize against writers so the value words
    // can never be observed torn.
    ++stats_.lock_fallbacks;
    const OpStatus lst = co_await lock_.acquire_status(th);
    if (lst != OpStatus::kOk) co_return note_error(lst);
  }
  KvStatus res = KvStatus::kNotFound;
  bool resolved = false;
  std::vector<std::uint64_t> buf(words_per_bucket());
  const std::uint64_t h = bucket_of(key);
  for (std::uint64_t pr = 0; pr < capacity_ && !resolved; ++pr) {
    const std::uint64_t b = (h + pr) & mask_;
    const OpStatus st = co_await th.get_status(
        buckets_, key_elem(b),
        std::as_writable_bytes(std::span(buf.data(), buf.size())));
    if (st != OpStatus::kOk) {
      res = note_error(st);
      resolved = true;
      break;
    }
    if (buf[0] == key) {
      std::copy(buf.begin() + 1, buf.begin() + 1 + cfg_.value_words,
                value.begin());
      count_tier(th, b);
      ++stats_.hits;
      res = KvStatus::kOk;
      resolved = true;
    } else if (buf[0] == kEmpty) {
      count_tier(th, b);
      ++stats_.misses;
      resolved = true;
    } else {
      ++stats_.probes;
    }
  }
  if (!resolved) ++stats_.misses;  // full table, key absent
  if (fallback) {
    const OpStatus rst = co_await lock_.release_status(th);
    if (res == KvStatus::kOk && rst != OpStatus::kOk) res = note_error(rst);
  }
  co_return res;
}

Task<KvStatus> KvStore::get(UpcThread& th, std::uint64_t key,
                            std::uint64_t* value) {
  return get(th, key, std::span(value, 1));
}

Task<KvStatus> KvStore::put(UpcThread& th, std::uint64_t key,
                            std::span<const std::uint64_t> value) {
  if (key == kEmpty) {
    throw std::invalid_argument("KvStore::put: key 0 marks empty buckets");
  }
  if (value.size() < cfg_.value_words) {
    throw std::invalid_argument("KvStore::put: value span too short");
  }
  ++stats_.puts;
  const std::uint64_t h = bucket_of(key);
  for (std::uint64_t pr = 0; pr < capacity_; ++pr) {
    const std::uint64_t b = (h + pr) & mask_;
    // Claim-or-find in one round trip: the CAS returns the old key word
    // whether or not the swap applied.
    std::uint64_t old = 0;
    const OpStatus st = co_await th.compare_swap_status(
        buckets_, key_elem(b), kEmpty, key, &old);
    if (st != OpStatus::kOk) co_return note_error(st);
    if (old != kEmpty && old != key) {
      ++stats_.cas_lost;
      ++stats_.probes;
      continue;
    }
    count_tier(th, b);
    if (old == kEmpty) {
      ++stats_.inserts;
    } else {
      ++stats_.updates;
    }
    if (cfg_.value_words == 1) {
      // Lock-free fast path: one word, one PUT, last-write-wins.
      const OpStatus vst = co_await th.write_status<std::uint64_t>(
          buckets_, key_elem(b) + 1, value[0]);
      if (vst != OpStatus::kOk) co_return note_error(vst);
    } else {
      ++stats_.lock_fallbacks;
      const OpStatus lst = co_await lock_.acquire_status(th);
      if (lst != OpStatus::kOk) co_return note_error(lst);
      OpStatus vst = co_await th.put_status(
          buckets_, key_elem(b) + 1,
          std::as_bytes(value.subspan(0, cfg_.value_words)));
      const OpStatus rst = co_await lock_.release_status(th);
      if (vst == OpStatus::kOk) vst = rst;
      if (vst != OpStatus::kOk) co_return note_error(vst);
    }
    co_return KvStatus::kOk;
  }
  co_return KvStatus::kFull;
}

Task<KvStatus> KvStore::put(UpcThread& th, std::uint64_t key,
                            std::uint64_t value) {
  // Must be a coroutine: `value` has to outlive the inner task, and a
  // plain forwarding return would hand it a span into a dead frame.
  co_return co_await put(th, key, std::span(&value, 1));
}

// --- open-loop serving workload -----------------------------------------

void fold_kv_metrics(sim::MetricsRegistry& reg, const KvStoreStats& stats,
                     const LatencyHistogram& get_latency,
                     const LatencyHistogram& put_latency,
                     double sustained_ops_per_s) {
  sim::fold(reg, stats, kKvStoreRows, /*live=*/0);
  reg.set("kv.lat.samples", get_latency.count() + put_latency.count());
  if (get_latency.count() > 0) {
    reg.set_gauge("kv.get.p50_us", get_latency.percentile_us(0.50));
    reg.set_gauge("kv.get.p95_us", get_latency.percentile_us(0.95));
    reg.set_gauge("kv.get.p99_us", get_latency.percentile_us(0.99));
    reg.set_gauge("kv.get.max_us", get_latency.max_us());
  }
  if (put_latency.count() > 0) {
    reg.set_gauge("kv.put.p50_us", put_latency.percentile_us(0.50));
    reg.set_gauge("kv.put.p95_us", put_latency.percentile_us(0.95));
    reg.set_gauge("kv.put.p99_us", put_latency.percentile_us(0.99));
    reg.set_gauge("kv.put.max_us", put_latency.max_us());
  }
  reg.set_gauge("kv.ops_per_s", sustained_ops_per_s);
}

KvWorkloadResult run_kv_workload(core::RuntimeConfig cfg,
                                 const KvWorkloadParams& p) {
  if (p.keyspace == 0) {
    throw std::invalid_argument("run_kv_workload: empty keyspace");
  }
  switch (p.access_path) {
    case KvAccessPath::kRdma:
      cfg.cache.enabled = true;
      // Force PUT caching even where the machine's calibrated default
      // keeps puts on AM (LAPI — the paper's negative RDMA-PUT region):
      // the sweep contrasts a pure one-sided path against a pure AM
      // path, and the LAPI rdma column *losing* on PUT storms is the
      // result, not an artifact to hide.
      cfg.cache.put_enabled = true;
      break;
    case KvAccessPath::kAm:
      cfg.cache.enabled = false;
      break;
  }
  const std::uint64_t seed = cfg.seed;
  // A crashed client never reaches the closing barrier, so with crashes
  // scheduled the survivors skip it rather than wait forever.
  const bool crashes = !cfg.faults.crashes.empty();
  core::Runtime rt(std::move(cfg));
  const std::uint32_t threads = rt.threads();
  std::vector<KvStoreStats> stats(threads);
  std::vector<LatencyHistogram> get_h(threads);
  std::vector<LatencyHistogram> put_h(threads);
  sim::Time t0 = 0;
  sim::Time t1 = 0;

  rt.run([&rt, &p, seed, crashes, threads, &stats, &get_h, &put_h, &t0,
          &t1](UpcThread& th) -> Task<void> {
    KvStore kv = co_await KvStore::create(th, p.store);
    // Preload keys 1..keyspace, round-robin across the clients, so the
    // measured phase runs against a populated table.
    std::vector<std::uint64_t> val(kv.value_words());
    for (std::uint64_t k = th.id() + 1; k <= p.keyspace;
         k += threads) {
      for (std::uint32_t w = 0; w < kv.value_words(); ++w) {
        val[w] = k * 1000 + w;
      }
      co_await kv.put(th, k, std::span<const std::uint64_t>(val));
    }
    co_await th.barrier();
    if (th.id() == 0) {
      if (p.access_path == KvAccessPath::kRdma) {
        rt.warm_address_cache(kv.array());
      }
      rt.reset_metrics();
    }
    co_await th.barrier();
    kv.reset_stats();

    // N->1 incast: restrict every client's draw to the keys homed on the
    // target thread's shard, so all traffic converges there. The hot-key
    // list is a pure function of the (deterministic) hash and layout, so
    // every client builds the same list without communicating.
    std::vector<std::uint64_t> hot;
    if (p.incast_home >= 0) {
      for (std::uint64_t k = 1; k <= p.keyspace; ++k) {
        if (kv.home_thread(k, threads) ==
            static_cast<std::uint32_t>(p.incast_home)) {
          hot.push_back(k);
        }
      }
      if (hot.empty()) {
        throw std::invalid_argument(
            "run_kv_workload: no keys home on the incast target (grow the "
            "keyspace)");
      }
    }

    // Open-loop measured phase: op i of this client is scheduled at
    // start + i * interarrival; latency is measured from that scheduled
    // instant, so falling behind the offered rate shows up as queueing
    // delay in the tail (no coordinated omission).
    ZipfGenerator zipf(hot.empty() ? p.keyspace : hot.size(), p.zipf_skew,
                       seed + 0x9e3779b97f4a7c15ull * (th.id() + 1));
    sim::Rng mix(seed ^ (0xda3e39cb94b95bdbull * (th.id() + 1)));
    if (th.id() == 0) t0 = th.now();
    const sim::Time start = th.now();
    bool dead = false;
    for (std::uint32_t i = 0; i < p.ops_per_thread; ++i) {
      if (th.crashed()) {
        dead = true;
        break;
      }
      const sim::Time scheduled = start + i * p.interarrival;
      if (th.now() < scheduled) co_await th.compute(scheduled - th.now());
      const std::uint64_t draw = zipf.next();
      const std::uint64_t key = hot.empty() ? draw + 1 : hot[draw];
      if (mix.chance(p.put_fraction)) {
        for (std::uint32_t w = 0; w < kv.value_words(); ++w) {
          val[w] = key * 0x10001 + i + w;
        }
        co_await kv.put(th, key, std::span<const std::uint64_t>(val));
        put_h[th.id()].record(th.now() - scheduled);
      } else {
        co_await kv.get(th, key, std::span<std::uint64_t>(val));
        get_h[th.id()].record(th.now() - scheduled);
      }
    }
    stats[th.id()] = kv.stats();
    if (dead) co_return;  // crashed threads must not enter barriers
    if (crashes) {
      // The measured phase ends when the last survivor finishes.
      t1 = std::max(t1, th.now());
      co_return;
    }
    co_await th.barrier();
    if (th.id() == 0) t1 = th.now();
  });

  KvWorkloadResult res;
  for (std::uint32_t t = 0; t < threads; ++t) {
    res.stats.merge(stats[t]);
    res.get_latency.merge(get_h[t]);
    res.put_latency.merge(put_h[t]);
  }
  res.elapsed_us = sim::to_us(t1 - t0);
  const std::uint64_t done = res.stats.gets + res.stats.puts;
  if (res.elapsed_us > 0.0) {
    res.sustained_ops_per_s = static_cast<double>(done) /
                              (res.elapsed_us * 1e-6);
  }
  res.offered_ops_per_s =
      static_cast<double>(threads) / (sim::to_us(p.interarrival) * 1e-6);
  // Gated fold: kv.* keys exist only when the workload issued ops, so
  // KV-free reports stay byte-identical to previous releases.
  if (done > 0) {
    fold_kv_metrics(rt.simulator().metrics(), res.stats, res.get_latency,
                    res.put_latency, res.sustained_ops_per_s);
  }
  res.report = rt.metrics();
  return res;
}

}  // namespace xlupc::dis
