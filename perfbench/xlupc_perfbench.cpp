// xlupc_perfbench — one run of one workload of the repository benchmark
// (perfbench/README.md), driven only through the public API:
// core::Runtime / UpcThread, dis::KvStore, svd::Directory and
// sim::Simulator.
//
// A run constructs the Runtime, allocates and fills the shared arrays,
// warms the address caches (or preloads the KV store), resets the
// metrics window, runs the measured phase, snapshots Runtime::metrics()
// and destroys the Runtime, timing each step on the host. It then checks
// every value the workload read or wrote against a host copy and prints
// the end-to-end and per-layer metrics, a digest of every simulated
// output and the host spans, as one JSON object on the last line.
//
// Usage: xlupc_perfbench --workload scale|dis|kv|chaos [--seed N] [--trace]
//                        [--size F] [--corrupt-slot]
//
//   --trace         set RuntimeConfig::trace and report the Tracer lines
//   --size F        scale the measured phase's op count by F (tests)
//   --corrupt-slot  overwrite one input slot with Runtime::debug_write
//                   before the measured phase; the checks must catch it
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error, 3 when the watchdog ended a run still going after 100 s.
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "dis/kvstore.h"
#include "dis/latency_histogram.h"
#include "dis/zipf.h"
#include "net/machine_registry.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "svd/directory.h"

using namespace xlupc;
using core::ArrayDesc;
using core::OpStatus;
using core::UpcThread;
using sim::Task;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over 64-bit words: the digest of simulated outputs and inputs.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    add(std::uint64_t{s.size()});
  }
};

/// A 64-bit value whose high half names its writer (or KV key).
std::uint64_t tagged(std::uint64_t tag, std::uint64_t version) {
  return (tag << 32) | (version & 0xffffffffull);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set of this process image, in MB. VmHWM rather than
/// getrusage: ru_maxrss also carries the high-water mark of the process
/// that forked this one, which dwarfs the small workloads.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

double heap_mb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------------
// Host spans: kept in memory, written once in the final JSON object.
// ------------------------------------------------------------------
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string parent;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void begin(std::string name, std::string parent) {
    spans_.push_back({std::move(name), std::move(parent), now_s(), 0.0});
  }
  void end(std::string_view name) {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name) {
        it->end_s = now_s();
        return;
      }
    }
  }
  double duration(std::string_view name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.end_s - s.start_s;
    }
    return 0.0;
  }
  /// The span minus the part of it that its child spans cover.
  double self(std::string_view name) const {
    double children = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == name) children += s.end_s - s.start_s;
    }
    return duration(name) - children;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  double now_s() const { return seconds_between(origin_, Clock::now()); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Ends the process as failed if the run has not finished within the
/// limit: a wedged simulation keeps scheduling events forever, so it can
/// only be stopped from outside the event loop.
/// Longest a repetition may take; every workload needs under 15 s.
constexpr double kWatchdogSeconds = 100.0;

class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] { watch(limit_s); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> g(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch(double limit_s) {
    std::unique_lock<std::mutex> lk(mu_);
    if (cv_.wait_for(lk, std::chrono::duration<double>(limit_s),
                     [this] { return done_; })) {
      return;
    }
    std::fprintf(stderr,
                 "xlupc_perfbench: watchdog: run still going after %.0f s; "
                 "ending it as failed\n",
                 limit_s);
    std::printf("{\"correct\": false, \"error\": \"watchdog\"}\n");
    std::fflush(stdout);
    std::_Exit(3);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

// ------------------------------------------------------------------
// Per-client outcome accounting.
// ------------------------------------------------------------------
struct Tally {
  std::vector<std::uint64_t> read_ns;   ///< simulated latency samples
  std::vector<std::uint64_t> write_ns;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;       ///< OK status and a value the check accepts
  std::uint64_t refused = 0;  ///< typed failure the fault plan explains
  std::uint64_t bad = 0;      ///< outcome the check rejects
  std::uint64_t late = 0;     ///< open-loop ops issued after their slot
  std::uint64_t faa = 0;      ///< fetch_adds that returned OK
  Fnv inputs;                 ///< digest of the generated op stream
};

struct Outcomes {
  std::vector<Tally> per_thread;
  std::vector<std::string> problems;  ///< first few rejected outcomes
  std::uint64_t setup_bad = 0;        ///< failed preload or set-up
  std::uint64_t lost = 0;  ///< served ops the final-state checks disprove

  void reject(std::string msg) {
    if (problems.size() < 8) problems.push_back(std::move(msg));
  }
};

// ------------------------------------------------------------------
// Workload interface.
// ------------------------------------------------------------------
class Workload {
 public:
  virtual ~Workload() = default;
  virtual core::RuntimeConfig config() const = 0;
  /// Collective allocation of the shared arrays; fills the inputs.
  virtual void alloc(core::Runtime& rt) = 0;
  /// Address-cache warm-up or KV preload.
  virtual void warm(core::Runtime& rt) = 0;
  /// Overwrite one input slot so that the checks must reject a result.
  virtual void corrupt(core::Runtime& rt) = 0;
  /// The measured phase. Starts the metrics window itself and returns
  /// the simulated instant the window opened.
  virtual sim::Time phase(core::Runtime& rt) = 0;
  /// Fold workload-level counters into the registry before metrics().
  virtual void fold(core::Runtime&) {}
  /// Host-side checks of the final shared state.
  virtual void check(core::Runtime& rt) = 0;

  Outcomes out;
};

std::uint64_t ops_for(std::uint64_t base, double size) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(base * size));
}

// ------------------------------------------------------------------
// Closed-loop access mix (scale, dis): Pointer hops, updates, Field
// scans and nonblocking GET rounds, every value checked.
// ------------------------------------------------------------------
struct MixParams {
  const char* machine = "gm";
  std::uint32_t nodes = 16;
  std::uint32_t threads_per_node = 4;
  std::uint64_t elems_per_thread = 512;  ///< Pointer successor array
  std::uint64_t rounds = 100;
  std::uint32_t hops_per_round = 4;
  bool slot_writes = true;        ///< `write` to own remotely-homed slots
  std::uint32_t scan_every = 1;   ///< a memget scan every Nth round
  std::uint64_t scan_elems = 64;  ///< longest scan; lengths are uniform
                                  ///< in [scan_elems / 4, scan_elems]
  std::uint32_t nb_every = 4;     ///< 0: no nonblocking rounds
  /// Mean of the exponential compute between dependent ops. Random
  /// think times and scan lengths keep the latency distribution free of
  /// single-value plateaus, so its percentiles move with the seed.
  sim::Duration work_ns = 40;
};

constexpr std::uint64_t kSlotsPerThread = 16;  ///< `write` targets per thread
constexpr std::uint32_t kNbBatch = 8;          ///< get_nb per round

/// Exponential deviate with the given mean, in whole nanoseconds.
sim::Duration exponential(sim::Rng& rng, double mean_ns) {
  return static_cast<sim::Duration>(-std::log1p(-rng.uniform()) * mean_ns);
}

class MixWorkload final : public Workload {
 public:
  MixWorkload(MixParams p, std::uint64_t seed) : p_(p), seed_(seed) {}

  core::RuntimeConfig config() const override {
    core::RuntimeConfig cfg;
    cfg.platform = net::make_machine(p_.machine);
    cfg.nodes = p_.nodes;
    cfg.threads_per_node = p_.threads_per_node;
    cfg.seed = seed_;
    return cfg;
  }

  void alloc(core::Runtime& rt) override {
    threads_ = rt.threads();
    n_ = p_.elems_per_thread * threads_;
    rt.run([this](UpcThread& th) -> Task<void> {
      ArrayDesc g = co_await th.all_alloc(n_, sizeof(std::uint64_t),
                                          p_.elems_per_thread);
      ArrayDesc c = co_await th.all_alloc(threads_, sizeof(std::uint64_t), 1);
      ArrayDesc s;
      if (p_.slot_writes) {
        s = co_await th.all_alloc(kSlotsPerThread * threads_,
                                  sizeof(std::uint64_t), kSlotsPerThread);
      }
      if (th.id() == 0) {
        graph_ = g;
        counters_ = c;
        slots_ = s;
      }
      co_await th.barrier();
    });
    // Random successor graph and start positions, from the seed only.
    sim::Rng rng(mix(seed_, 0x6772617068ull));
    host_graph_.resize(n_);
    for (auto& v : host_graph_) v = rng.below(n_);
    start_.resize(threads_);
    for (auto& v : start_) v = rng.below(n_);
    for (std::uint64_t t = 0; t < threads_; ++t) {
      const std::uint64_t base = t * p_.elems_per_thread;
      rt.debug_write(graph_, base,
                     std::as_bytes(std::span(host_graph_.data() + base,
                                             p_.elems_per_thread)));
    }
    last_.assign(kSlotsPerThread * threads_, 0);
  }

  void warm(core::Runtime& rt) override {
    rt.warm_address_cache(graph_);
    rt.warm_address_cache(counters_);
    if (slots_.valid()) rt.warm_address_cache(slots_);
  }

  void corrupt(core::Runtime& rt) override {
    // Thread 0's first hop reads this slot, so the corruption is seen.
    const std::uint64_t wrong = (host_graph_[start_[0]] + 1) % n_;
    rt.debug_write(graph_, start_[0], std::as_bytes(std::span(&wrong, 1)));
  }

  sim::Time phase(core::Runtime& rt) override {
    out.per_thread.assign(threads_, Tally{});
    rt.reset_metrics();
    const sim::Time t0 = rt.elapsed();
    rt.run([this](UpcThread& th) -> Task<void> { return client(th); });
    return t0;
  }

  void check(core::Runtime& rt) override {
    std::uint64_t sum = 0;
    for (std::uint64_t c = 0; c < threads_; ++c) {
      std::uint64_t v = 0;
      rt.debug_read(counters_, c, std::as_writable_bytes(std::span(&v, 1)));
      sum += v;
    }
    std::uint64_t faa = 0;
    for (const Tally& t : out.per_thread) faa += t.faa;
    if (sum != faa) {
      out.lost += sum > faa ? sum - faa : faa - sum;
      out.reject("counter sum " + std::to_string(sum) + " != fetch_adds " +
                 std::to_string(faa));
    }
    if (!slots_.valid()) return;
    for (std::uint64_t i = 0; i < last_.size(); ++i) {
      if (last_[i] == 0) continue;  // never written
      std::uint64_t v = 0;
      rt.debug_read(slots_, i, std::as_writable_bytes(std::span(&v, 1)));
      if (v != last_[i]) {
        ++out.lost;  // the last write to this slot did not land
        out.reject("slot " + std::to_string(i) + " holds " +
                   std::to_string(v) + ", last write was " +
                   std::to_string(last_[i]));
      }
    }
  }

 private:
  void expect(Tally& t, std::uint64_t got, std::uint64_t elem,
              const char* what) {
    if (got == host_graph_[elem]) {
      ++t.ok;
      return;
    }
    ++t.bad;
    out.reject(std::string(what) + " of element " + std::to_string(elem) +
               " returned " + std::to_string(got) + ", expected " +
               std::to_string(host_graph_[elem]));
  }

  Task<void> client(UpcThread& th) {
    Tally& t = out.per_thread[th.id()];
    sim::Rng rng(mix(seed_, 0x636c69656e74ull + th.id()));
    const std::uint64_t tpn = p_.threads_per_node;
    // This thread's update slots live on the next node's thread.
    const std::uint64_t slot_base =
        ((th.id() + tpn) % threads_) * kSlotsPerThread;
    std::uint64_t pos = start_[th.id()];
    // Sized up front, so peak RSS does not depend on where growth lands.
    const std::uint64_t scans = p_.scan_every ? p_.rounds / p_.scan_every + 1 : 0;
    const std::uint64_t nbs = p_.nb_every ? p_.rounds / p_.nb_every + 1 : 0;
    t.read_ns.reserve(p_.rounds * p_.hops_per_round + scans + nbs * kNbBatch);
    t.write_ns.reserve(p_.rounds * (p_.slot_writes ? 2 : 1));
    std::vector<std::uint64_t> scan(p_.scan_elems);
    std::vector<std::uint64_t> nb_val(kNbBatch);
    std::vector<std::uint64_t> nb_pos(kNbBatch);
    std::vector<core::OpHandle> nb_h(kNbBatch);
    std::vector<sim::Time> nb_issued(kNbBatch);
    t.inputs.add(pos);

    for (std::uint64_t r = 0; r < p_.rounds; ++r) {
      // Pointer: serially dependent random hops.
      for (std::uint32_t h = 0; h < p_.hops_per_round; ++h) {
        const sim::Time s = th.now();
        ++t.attempted;
        const std::uint64_t succ = co_await th.read<std::uint64_t>(graph_, pos);
        t.read_ns.push_back(th.now() - s);
        expect(t, succ, pos, "hop");
        pos = host_graph_[pos];  // follow the true graph even after a miss
        co_await th.compute(exponential(rng, p_.work_ns));
      }
      // Update: a relaxed write to one of this thread's remote slots...
      if (p_.slot_writes) {
        const std::uint64_t k = rng.below(kSlotsPerThread);
        const std::uint64_t v = tagged(th.id() + 1, r + 1);
        t.inputs.add(k);
        const sim::Time s = th.now();
        ++t.attempted;
        co_await th.write<std::uint64_t>(slots_, slot_base + k, v);
        t.write_ns.push_back(th.now() - s);
        last_[slot_base + k] = v;
        ++t.ok;
      }
      // ...and a fetch_add on a shared counter.
      {
        const std::uint64_t c = rng.below(threads_);
        t.inputs.add(c);
        const sim::Time s = th.now();
        ++t.attempted;
        std::uint64_t old = 0;
        const OpStatus st = co_await th.fetch_add_status(counters_, c, 1, &old);
        t.write_ns.push_back(th.now() - s);
        if (st == OpStatus::kOk) {
          ++t.ok;
          ++t.faa;
        } else {
          ++t.bad;
          out.reject("fetch_add on counter " + std::to_string(c) +
                     " failed with status " +
                     std::to_string(static_cast<int>(st)));
        }
      }
      // Field: a memget scan overhanging into the next thread's piece.
      if (p_.scan_every != 0 && r % p_.scan_every == 0) {
        const std::uint64_t owner = rng.below(threads_);
        const std::uint64_t len = rng.between(p_.scan_elems / 4, p_.scan_elems);
        const std::uint64_t first = std::min(
            n_ - len, owner * p_.elems_per_thread + p_.elems_per_thread - len / 2);
        t.inputs.add(first);
        t.inputs.add(len);
        const sim::Time s = th.now();
        ++t.attempted;
        co_await th.memget(graph_, first,
                           std::as_writable_bytes(std::span(scan.data(), len)));
        t.read_ns.push_back(th.now() - s);
        bool same = true;
        for (std::uint64_t i = 0; i < len; ++i) {
          same = same && scan[i] == host_graph_[first + i];
        }
        if (same) {
          ++t.ok;
        } else {
          ++t.bad;
          out.reject("scan at " + std::to_string(first) +
                     " differs from the host copy");
        }
        co_await th.compute(exponential(rng, 3.0 * p_.work_ns));
      }
      // A round of nonblocking GETs retired by wait.
      if (p_.nb_every != 0 && r % p_.nb_every == 0) {
        for (std::uint32_t i = 0; i < kNbBatch; ++i) {
          nb_pos[i] = rng.below(n_);
          t.inputs.add(nb_pos[i]);
          ++t.attempted;
          nb_issued[i] = th.now();
          nb_h[i] = th.get_nb(graph_, nb_pos[i],
                              std::as_writable_bytes(std::span(&nb_val[i], 1)));
          co_await th.compute(exponential(rng, p_.work_ns));
        }
        for (std::uint32_t i = 0; i < kNbBatch; ++i) {
          const OpStatus st = co_await th.wait_status(nb_h[i]);
          t.read_ns.push_back(th.now() - nb_issued[i]);
          if (st == OpStatus::kOk) {
            expect(t, nb_val[i], nb_pos[i], "get_nb");
          } else {
            ++t.bad;
            out.reject("get_nb failed with status " +
                       std::to_string(static_cast<int>(st)));
          }
        }
        co_await th.compute(exponential(rng, p_.work_ns));
      }
    }
    co_await th.fence();
  }

  MixParams p_;
  std::uint64_t seed_;
  std::uint64_t threads_ = 0;
  std::uint64_t n_ = 0;
  ArrayDesc graph_;
  ArrayDesc counters_;
  ArrayDesc slots_;
  std::vector<std::uint64_t> host_graph_;
  std::vector<std::uint64_t> start_;
  std::vector<std::uint64_t> last_;  ///< last value written per slot
};

// ------------------------------------------------------------------
// Open-loop Zipfian KV serving (kv, chaos) over dis::KvStore.
// ------------------------------------------------------------------
struct KvParams {
  const char* machine = "ib";
  std::uint32_t nodes = 36;
  bool cache = true;                 ///< warm cache, one-sided tier
  std::uint32_t port_credits = 0;    ///< finite fabric buffers when > 0
  std::uint64_t ops_per_client = 8000;
  sim::Duration interarrival = sim::us(8.0);  ///< mean, per client
  /// Message faults and a crash-stop mid-phase (the chaos constants).
  bool chaos = false;
};

constexpr std::uint64_t kCapacity = 8192;  ///< buckets
constexpr std::uint64_t kKeys = 4096;      ///< preloaded keys 1..kKeys
constexpr std::uint32_t kBlockBuckets = 8;
constexpr double kZipfSkew = 0.99;
constexpr double kPutFraction = 0.3;
// Chaos: 0.2 % of message legs dropped, 30 % of the losses arriving late
// as duplicates. The measured phase starts at a fixed instant, so the
// crash can be put in the fault plan before the Runtime exists; setup
// must end before it.
constexpr double kDropProb = 0.002;
constexpr double kDupProb = 0.3;
constexpr sim::Time kChaosPhaseStart = sim::ms(40.0);

class KvWorkload final : public Workload {
 public:
  KvWorkload(KvParams p, std::uint64_t seed) : p_(p), seed_(seed) {
    if (p_.chaos) {
      crash_node_ = hot_shard_node();
      crash_at_ = kChaosPhaseStart + p_.ops_per_client * p_.interarrival / 2;
    }
  }

  core::RuntimeConfig config() const override {
    core::RuntimeConfig cfg;
    cfg.platform = net::make_machine(p_.machine);
    cfg.nodes = p_.nodes;
    cfg.threads_per_node = 1;
    cfg.seed = seed_;
    cfg.cache.enabled = p_.cache;
    if (p_.cache) cfg.cache.put_enabled = true;
    if (p_.port_credits > 0) {
      cfg.fabric.port_credits = p_.port_credits;
      cfg.fabric.routing = net::RoutePolicy::kAdaptive;
      cfg.fabric.route_seed = seed_;
    }
    if (p_.chaos) {
      cfg.faults.seed = mix(seed_, 0x6661756c74ull);
      cfg.faults.drop_prob = kDropProb;
      cfg.faults.dup_prob = kDupProb;
      cfg.faults.crashes = {{crash_node_, crash_at_}};
      cfg.faults.lease_misses = 8;
    }
    return cfg;
  }

  void alloc(core::Runtime& rt) override {
    threads_ = rt.threads();
    stores_.resize(threads_);
    rt.run([this](UpcThread& th) -> Task<void> {
      stores_[th.id()] = co_await dis::KvStore::create(th, store_config());
      co_await th.barrier();
    });
  }

  void warm(core::Runtime& rt) override {
    rt.run([this](UpcThread& th) -> Task<void> {
      dis::KvStore& kv = stores_[th.id()];
      for (std::uint64_t k = th.id() + 1; k <= kKeys; k += threads_) {
        const dis::KvStatus st = co_await kv.put(th, k, tagged(k, 0));
        if (st != dis::KvStatus::kOk) {
          ++out.setup_bad;
          out.reject("preload of key " + std::to_string(k) + " returned " +
                     dis::to_string(st));
        }
      }
      co_await th.barrier();
    });
    if (p_.cache) rt.warm_address_cache(stores_[0].array());
    // Where each preloaded key landed, for the crash-path expectations.
    const std::vector<std::uint64_t> table = read_table(rt);
    chain_nodes_.assign(kKeys + 1, {});
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      for (std::uint64_t b : probe_chain(table, k)) {
        chain_nodes_[k].push_back(node_of_bucket(b));
      }
    }
  }

  void corrupt(core::Runtime& rt) override {
    // Key 1 is the hottest Zipf rank: tag its value with another key.
    const std::uint64_t b = probe_chain(read_table(rt), 1).back();
    const std::uint64_t wrong = tagged(2, 0);
    rt.debug_write(stores_[0].array(), 2 * b + 1,
                   std::as_bytes(std::span(&wrong, 1)));
  }

  sim::Time phase(core::Runtime& rt) override {
    out.per_thread.assign(threads_, Tally{});
    stats_.assign(threads_, dis::KvStoreStats{});
    start_ = p_.chaos ? std::max(rt.elapsed(), kChaosPhaseStart) : rt.elapsed();
    if (p_.chaos && rt.elapsed() > kChaosPhaseStart) {
      ++out.setup_bad;
      out.reject("setup ran past the fixed phase start; raise kChaosPhaseStart");
    }
    rt.run([this, &rt](UpcThread& th) -> Task<void> {
      if (th.now() < start_) {
        co_await rt.simulator().delay(start_ - th.now());
      }
      // Thread 0 resumes first at start_, before any op of the phase.
      if (th.id() == 0) rt.reset_metrics();
      co_await client(th);
    });
    return start_;
  }

  void fold(core::Runtime& rt) override {
    dis::KvStoreStats merged;
    dis::LatencyHistogram get_h;
    dis::LatencyHistogram put_h;
    for (std::uint32_t t = 0; t < threads_; ++t) {
      merged.merge(stats_[t]);
      for (std::uint64_t ns : out.per_thread[t].read_ns) get_h.record(ns);
      for (std::uint64_t ns : out.per_thread[t].write_ns) put_h.record(ns);
    }
    const double window_s = sim::to_us(rt.elapsed() - start_) * 1e-6;
    const double ops = static_cast<double>(merged.gets + merged.puts);
    dis::fold_kv_metrics(rt.simulator().metrics(), merged, get_h, put_h,
                         window_s > 0.0 ? ops / window_s : 0.0);
  }

  void check(core::Runtime& rt) override {
    // Final sweep: every preloaded key is still findable by probing and
    // carries a value tagged with its own key.
    const std::vector<std::uint64_t> table = read_table(rt);
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      const std::uint64_t b = probe_chain(table, k).back();
      if (table[2 * b] != k || (table[2 * b + 1] >> 32) != k) {
        ++out.lost;
        out.reject("final sweep: key " + std::to_string(k) +
                   " missing or carrying another key's value");
      }
    }
  }

 private:
  dis::KvStoreConfig store_config() const {
    dis::KvStoreConfig kc;
    kc.capacity = kCapacity;
    kc.value_words = 1;
    kc.block_buckets = kBlockBuckets;
    return kc;
  }

  /// The node serving the hottest key that thread 0's node does not: the
  /// chaos crash takes down a hot shard, so every client meets the
  /// failure within the detection lease and the tail it leaves is much
  /// the same for every seed. Key placement is a KvStore detail, asked of
  /// a throwaway one-node store with the same geometry.
  std::uint32_t hot_shard_node() const {
    core::RuntimeConfig cfg;
    cfg.platform = net::make_machine(p_.machine);
    cfg.nodes = 1;
    core::Runtime probe(std::move(cfg));
    std::uint32_t node = 0;
    probe.run([this, &node](UpcThread& th) -> Task<void> {
      const dis::KvStore kv = co_await dis::KvStore::create(th, store_config());
      for (std::uint64_t k = 1; node == 0 && k <= kKeys; ++k) {
        node = kv.home_thread(k, p_.nodes);  // one thread per node
      }
    });
    return node;
  }

  std::uint32_t node_of_bucket(std::uint64_t b) const {
    // Bucket b is homed on thread (b / block_buckets) % THREADS, one
    // thread per node here.
    return static_cast<std::uint32_t>((b / kBlockBuckets) % threads_);
  }

  /// Buckets a lookup of `key` visits, ending at the key's bucket or at
  /// the first empty one: KvStore's linear probing over [key | value].
  std::vector<std::uint64_t> probe_chain(const std::vector<std::uint64_t>& table,
                                         std::uint64_t key) const {
    const std::uint64_t mask = stores_[0].capacity() - 1;
    std::vector<std::uint64_t> chain;
    for (std::uint64_t b = stores_[0].bucket_of(key); chain.size() <= mask;
         b = (b + 1) & mask) {
      chain.push_back(b);
      if (table[2 * b] == key || table[2 * b] == 0) break;
    }
    return chain;
  }

  std::vector<std::uint64_t> read_table(core::Runtime& rt) const {
    const ArrayDesc& a = stores_[0].array();
    const std::uint64_t words = 2 * stores_[0].capacity();
    const std::uint64_t block = 2 * kBlockBuckets;  // never straddles
    std::vector<std::uint64_t> table(words);
    for (std::uint64_t e = 0; e < words; e += block) {
      rt.debug_read(a, e,
                    std::as_writable_bytes(std::span(table.data() + e, block)));
    }
    return table;
  }

  /// A typed failure is explained by the fault plan when the client sits
  /// on the crashed node or the key's probe chain crosses it.
  bool explained(std::uint32_t client_node, std::uint64_t key) const {
    if (!p_.chaos) return false;
    if (client_node == crash_node_) return true;
    const auto& chain = chain_nodes_[key];
    return std::find(chain.begin(), chain.end(), crash_node_) != chain.end();
  }

  /// True when the op was served and its value passed the check.
  bool classify(Tally& t, UpcThread& th, std::uint64_t key, bool is_put,
                dis::KvStatus st, std::uint64_t value) {
    if (st == dis::KvStatus::kOk) {
      if (is_put || (value >> 32) == key) {
        ++t.ok;
        return true;
      }
      ++t.bad;
      out.reject("get(" + std::to_string(key) + ") returned a value tagged " +
                 std::to_string(value >> 32));
      return false;
    }
    if ((st == dis::KvStatus::kPeerFailed || st == dis::KvStatus::kTimeout) &&
        explained(th.node(), key)) {
      ++t.refused;
      return false;
    }
    ++t.bad;
    out.reject(std::string(is_put ? "put(" : "get(") + std::to_string(key) +
               ") returned " + dis::to_string(st));
    return false;
  }

  Task<void> client(UpcThread& th) {
    Tally& t = out.per_thread[th.id()];
    dis::KvStore& kv = stores_[th.id()];
    kv.reset_stats();
    dis::ZipfGenerator zipf(kKeys, kZipfSkew,
                            mix(seed_, 0x7a697066ull + th.id()));
    sim::Rng coin(mix(seed_, 0x636f696eull + th.id()));
    sim::Rng arrivals(mix(seed_, 0x61727276ull + th.id()));
    core::Runtime& rt = th.runtime();
    // Sized up front, so peak RSS does not depend on where growth lands.
    t.read_ns.reserve(p_.ops_per_client);
    t.write_ns.reserve(p_.ops_per_client);
    sim::Time due = start_;
    for (std::uint64_t i = 0; i < p_.ops_per_client; ++i) {
      // A crashed client issues nothing more; no barrier follows, so
      // the survivors never wait for it.
      if (th.crashed()) break;
      // Independent users: Poisson arrivals at the configured mean rate.
      due += exponential(arrivals, static_cast<double>(p_.interarrival));
      if (th.now() < due) {
        co_await rt.simulator().delay(due - th.now());
      } else if (th.now() > due) {
        ++t.late;
      }
      const std::uint64_t key = zipf.next() + 1;
      const bool is_put = coin.chance(kPutFraction);
      t.inputs.add(key * 2 + (is_put ? 1 : 0));
      ++t.attempted;
      std::uint64_t value = 0;
      dis::KvStatus st;
      if (is_put) {
        st = co_await kv.put(th, key,
                             tagged(key, th.id() * p_.ops_per_client + i + 1));
      } else {
        st = co_await kv.get(th, key, &value);
      }
      // Latency counts from the scheduled instant, over served requests
      // only: a failed one is a miss, counted by ok_frac.
      if (classify(t, th, key, is_put, st, value)) {
        (is_put ? t.write_ns : t.read_ns).push_back(th.now() - due);
      }
    }
    stats_[th.id()] = kv.stats();
  }

  KvParams p_;
  std::uint64_t seed_;
  std::uint32_t threads_ = 0;
  std::uint32_t crash_node_ = 0;
  sim::Time crash_at_ = 0;
  sim::Time start_ = 0;
  std::vector<dis::KvStore> stores_;
  std::vector<dis::KvStoreStats> stats_;
  std::vector<std::vector<std::uint32_t>> chain_nodes_;
};

// ------------------------------------------------------------------
// The four workloads (perfbench/README.md says why each exists).
// ------------------------------------------------------------------
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, double size) {
  if (name == "scale") {
    MixParams p;
    p.machine = "gm";
    p.nodes = 2048;
    p.threads_per_node = 4;
    p.elems_per_thread = 16;
    p.rounds = ops_for(3, size);
    p.hops_per_round = 6;
    p.slot_writes = false;
    p.scan_every = 2;
    p.scan_elems = 16;
    p.nb_every = 0;
    p.work_ns = 60;
    return std::make_unique<MixWorkload>(p, seed);
  }
  if (name == "dis") {
    MixParams p;
    p.machine = "gm";
    p.nodes = 16;
    p.threads_per_node = 4;
    p.elems_per_thread = 512;
    p.rounds = ops_for(1500, size);
    p.hops_per_round = 4;
    p.slot_writes = true;
    p.scan_every = 1;
    p.scan_elems = 64;
    p.nb_every = 4;
    return std::make_unique<MixWorkload>(p, seed);
  }
  if (name == "kv") {
    KvParams p;
    p.machine = "ib";
    p.nodes = 36;  // two 18-port leaves of the fat tree
    p.cache = true;
    p.port_credits = 2;
    p.ops_per_client = ops_for(12000, size);
    p.interarrival = sim::us(8.0);
    return std::make_unique<KvWorkload>(p, seed);
  }
  if (name == "chaos") {
    KvParams p;
    p.machine = "lapi";
    p.nodes = 32;
    p.cache = false;
    p.ops_per_client = ops_for(2000, size);
    p.interarrival = sim::us(20.0);
    p.chaos = true;
    return std::make_unique<KvWorkload>(p, seed);
  }
  return nullptr;
}

// ------------------------------------------------------------------
// One repetition and its metrics.
// ------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// What the benchmark reads from the Runtime before destroying it.
struct Iteration {
  core::RunReport report;
  std::uint64_t phase_events = 0;
  std::uint64_t queue_hwm = 0;
  std::uint64_t svd_entries = 0;
  double phase_sim_s = 0.0;
  double ctor_heap_mb = 0.0;
  std::string error;  ///< an exception that ended the repetition
};

/// Construct, set up, run, report, check and destroy, timing each step
/// as a span.
Iteration run_iteration(Workload& w, const core::RuntimeConfig& cfg,
                        bool corrupt, SpanLog& spans) {
  Iteration it;
  spans.begin("iteration", "");
  try {
    spans.begin("setup", "iteration");
    spans.begin("ctor", "setup");
    const double heap0 = heap_mb();
    auto rt = std::make_unique<core::Runtime>(cfg);
    it.ctor_heap_mb = heap_mb() - heap0;
    spans.end("ctor");
    spans.begin("alloc", "setup");
    w.alloc(*rt);
    spans.end("alloc");
    spans.begin("warm", "setup");
    w.warm(*rt);
    spans.end("warm");
    spans.end("setup");
    if (corrupt) w.corrupt(*rt);

    spans.begin("run", "iteration");
    spans.begin("phase", "run");
    const std::uint64_t ev0 = rt->simulator().events_executed();
    const sim::Time t0 = w.phase(*rt);
    it.phase_events = rt->simulator().events_executed() - ev0;
    it.phase_sim_s = sim::to_us(rt->elapsed() - t0) * 1e-6;
    it.queue_hwm = rt->simulator().queue().arena_capacity();
    spans.end("phase");
    spans.begin("report", "run");
    w.fold(*rt);
    it.report = rt->metrics();
    spans.end("report");
    spans.begin("check", "run");
    w.check(*rt);
    for (NodeId n = 0; n < cfg.nodes; ++n) {
      it.svd_entries += rt->directory(n).size();
    }
    spans.end("check");
    spans.begin("teardown", "run");
    rt.reset();
    spans.end("teardown");
    spans.end("run");
  } catch (const std::exception& e) {
    it.error = e.what();
  }
  spans.end("iteration");
  return it;
}

/// All clients' outcomes in one tally, latency samples sorted. Ops the
/// final-state checks disprove move from served to failed.
Tally merge(const Outcomes& out) {
  Tally all;
  for (const Tally& t : out.per_thread) {
    all.read_ns.insert(all.read_ns.end(), t.read_ns.begin(), t.read_ns.end());
    all.write_ns.insert(all.write_ns.end(), t.write_ns.begin(),
                        t.write_ns.end());
    all.attempted += t.attempted;
    all.ok += t.ok;
    all.refused += t.refused;
    all.bad += t.bad;
    all.late += t.late;
    all.inputs.add(t.inputs.h);
  }
  const std::uint64_t lost = std::min(all.ok, out.lost);
  all.ok -= lost;
  all.bad += lost + out.setup_bad;
  std::sort(all.read_ns.begin(), all.read_ns.end());
  std::sort(all.write_ns.begin(), all.write_ns.end());
  return all;
}

/// Digest of every exact simulated output: counters, gauges, resource
/// usage, event count, latency samples and outcome counts. Trace lines
/// are left out, so traced and untraced runs must agree.
std::uint64_t simulated_digest(const Iteration& it, const Tally& all) {
  Fnv d;
  for (const auto& [k, v] : it.report.counters) {
    d.add(k);
    d.add(v);
  }
  for (const auto& [k, v] : it.report.gauges) {
    d.add(k);
    d.add(v);
  }
  for (const core::ResourceUsage& r : it.report.resources) {
    d.add(r.name);
    d.add(r.acquisitions);
    d.add(r.busy_us);
    d.add(r.queue_wait_us);
  }
  d.add(it.report.events);
  d.add(it.report.elapsed_us);
  for (std::uint64_t v : all.read_ns) d.add(v);
  for (std::uint64_t v : all.write_ns) d.add(v);
  for (std::uint64_t v : {all.attempted, all.ok, all.refused, all.bad,
                          all.late, it.svd_entries, it.queue_hwm}) {
    d.add(v);
  }
  return d.h;
}

/// Exact order statistic with linear interpolation; `v` sorted, in ns.
double percentile_us(const std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double h = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double x = static_cast<double>(v[lo]) +
                   (h - static_cast<double>(lo)) *
                       (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
  return x / 1e3;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

Metrics end_to_end(const SpanLog& spans, const Iteration& it,
                   const Tally& all) {
  return {
      {"setup_s", spans.duration("setup"), "s"},
      // The benchmark's own output check is not the simulator's time.
      {"run_s", spans.duration("run") - spans.duration("check"), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"read_p50_us", percentile_us(all.read_ns, 0.50), "us"},
      {"read_p99_us", percentile_us(all.read_ns, 0.99), "us"},
      {"read_p999_us", percentile_us(all.read_ns, 0.999), "us"},
      {"write_p50_us", percentile_us(all.write_ns, 0.50), "us"},
      {"write_p99_us", percentile_us(all.write_ns, 0.99), "us"},
      {"write_p999_us", percentile_us(all.write_ns, 0.999), "us"},
      {"sim_ops_per_s",
       it.phase_sim_s > 0.0 ? static_cast<double>(all.ok) / it.phase_sim_s
                            : 0.0,
       "1/s"},
      {"ok_frac", ratio(all.ok, all.attempted), "ratio"},
  };
}

bool resource_is(std::string_view name, std::string_view kind) {
  // Resource names are "n<node>.<kind>..." (net::Machine).
  if (name.empty() || name[0] != 'n') return false;
  const std::size_t dot = name.find('.');
  return dot != std::string_view::npos &&
         name.substr(dot + 1, kind.size()) == kind;
}

/// Every per-layer metric, by layer. A family the RunReport gates out on
/// this workload reads 0.
Metrics per_layer(const SpanLog& spans, const Iteration& it, const Tally& all,
                  bool trace, std::uint32_t threads) {
  const core::RunReport& report = it.report;
  Metrics m;
  auto counter = [&](const char* name, const char* unit = "count") {
    m.push_back({name, static_cast<double>(report.counter(name)), unit});
  };
  auto gauge = [&](const char* name, const char* unit) {
    m.push_back({name, report.gauge(name), unit});
  };
  double core_wait = 0.0, comm_wait = 0.0, nic_wait = 0.0;
  for (const core::ResourceUsage& r : report.resources) {
    if (resource_is(r.name, "core")) core_wait += r.queue_wait_us;
    if (resource_is(r.name, "comm")) comm_wait += r.queue_wait_us;
    if (resource_is(r.name, "nic_")) nic_wait += r.queue_wait_us;
  }
  const double events = static_cast<double>(it.phase_events);
  const double ops = static_cast<double>(
      std::max<std::uint64_t>(1, all.ok + all.refused + all.bad));

  // sim
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.events_per_op", events / ops, "count"});
  m.push_back({"sim.host_ns_per_event",
               events > 0 ? spans.duration("phase") * 1e9 / events : 0.0,
               "ns"});
  m.push_back({"sim.queue_hwm", static_cast<double>(it.queue_hwm), "count"});
  m.push_back({"sim.core_wait_us", core_wait, "us"});
  m.push_back({"sim.comm_wait_us", comm_wait, "us"});
  m.push_back({"sim.nic_wait_us", nic_wait, "us"});
  gauge("util.cpu_pct", "%");
  gauge("util.comm_cpu_pct", "%");
  gauge("util.nic_pct", "%");
  // core
  for (const char* span : {"ctor", "alloc", "warm", "report", "teardown"}) {
    m.push_back({std::string("core.") + span + "_s", spans.duration(span),
                 "s"});
  }
  m.push_back({"core.ctor_heap_mb", it.ctor_heap_mb, "MB"});
  gauge("cache.hit_rate", "ratio");
  counter("cache.misses");
  counter("cache.evictions");
  counter("runtime.gets.am");
  counter("runtime.gets.rdma");
  counter("runtime.puts.rdma");
  counter("comm.amo.am");
  counter("comm.amo.offloaded");
  counter("comm.amo.cas_failures");
  counter("comm.wait_stalls");
  counter("comm.outstanding_hwm");
  counter("fault.detector.heartbeats");
  counter("fault.detector.suspicions");
  counter("fault.detector.deaths");
  counter("fault.breaker.fast_fails");
  // svd
  m.push_back({"svd.entries", static_cast<double>(it.svd_entries), "count"});
  if (trace) {
    // One standalone replica, built outside the Runtime's lifetime.
    const double heap0 = heap_mb();
    const auto t0 = Clock::now();
    auto replica = std::make_unique<svd::Directory>(threads);
    const double build_us = seconds_between(t0, Clock::now()) * 1e6;
    const double kb = (heap_mb() - heap0) * 1024.0;
    replica.reset();
    m.push_back({"svd.replica_build_us", build_us, "us"});
    m.push_back({"svd.replica_heap_kb", kb, "KB"});
  }
  // mem
  counter("pin.calls");
  counter("pin.registrations");
  counter("pin.pinned_bytes", "B");
  // net
  counter("transport.wire_bytes", "B");
  counter("transport.control_msgs");
  counter("transport.gets.eager");
  counter("transport.puts.eager");
  counter("transport.rdma.gets");
  counter("transport.rdma.puts");
  counter("transport.amos");
  counter("transport.ib.qp_posts");
  counter("transport.ib.sq_stalls");
  counter("transport.ib.nic_atomics");
  counter("fabric.msgs");
  counter("fabric.hops");
  counter("fabric.credit_waits");
  counter("fabric.credit_wait_ns", "ns");
  counter("fabric.adaptive_diverts");
  gauge("util.fabric_pct", "%");
  counter("reliability.retransmits");
  gauge("reliability.backoff_us", "us");
  counter("reliability.timeouts");
  counter("fault.dropped_msgs");
  counter("fault.duplicate_msgs");
  counter("fault.fabric.peer_dead_drops");
  // dis
  counter("kv.probes");
  counter("kv.cas_lost");
  counter("kv.inserts");
  counter("kv.updates");
  counter("kv.tier.remote");
  counter("kv.errors.peer_failed");
  counter("kv.errors.timeout");
  m.push_back({"dis.late_issue_frac", ratio(all.late, all.attempted),
               "ratio"});
  m.push_back({"samples.reads", static_cast<double>(all.read_ns.size()),
               "count"});
  m.push_back({"samples.writes", static_cast<double>(all.write_ns.size()),
               "count"});
  if (trace) {
    // Fixed (op, path) grid so every traced run reports the same names.
    std::map<std::string, const core::TraceReportLine*> lines;
    for (const auto& l : report.trace) lines[l.op + "." + l.path] = &l;
    for (const char* op : {"get", "put", "amo"}) {
      for (const char* path : {"shm", "am", "rdma", "nic_dma"}) {
        const std::string key = std::string(op) + "." + path;
        const auto found = lines.find(key);
        const core::TraceReportLine* l =
            found == lines.end() ? nullptr : found->second;
        m.push_back({"trace." + key + ".count", l ? l->count : 0.0, "count"});
        m.push_back({"trace." + key + ".mean_us", l ? l->mean_us : 0.0, "us"});
        m.push_back({"trace." + key + ".max_us", l ? l->max_us : 0.0, "us"});
      }
    }
  }
  return m;
}

/// Metric families the RunReport itself carried: it gates fabric.*,
/// fault.*, reliability.*, kv.* and transport.ib.* on their layer.
std::set<std::string> report_families(const core::RunReport& report) {
  std::set<std::string> families;
  auto family = [&](const std::string& name) {
    families.insert(name.rfind("transport.ib.", 0) == 0
                        ? "transport.ib"
                        : name.substr(0, name.find('.')));
  };
  for (const auto& kv : report.counters) family(kv.first);
  for (const auto& kv : report.gauges) family(kv.first);
  return families;
}

// ------------------------------------------------------------------
// Command line and output.
// ------------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  double size = 1.0;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xlupc_perfbench: %s\n"
               "usage: xlupc_perfbench --workload scale|dis|kv|chaos "
               "[--seed N] [--trace]\n"
               "                       [--size F] [--corrupt-slot]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--size") {
      o.size = std::strtod(value(), nullptr);
      if (!(o.size > 0.0 && o.size <= 100.0)) usage("--size must be in (0, 100]");
    } else if (a == "--corrupt-slot") {
      o.corrupt = true;
    } else {
      usage("unknown argument");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

void print_metrics(const char* key, const Metrics& set) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const Metric& m : set) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}");
}

std::string json_escape(std::string_view s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    o.push_back(c == '\n' ? ' ' : c);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed, opt.size);
  if (!w) usage("unknown workload");
  Watchdog watchdog(kWatchdogSeconds);

  core::RuntimeConfig cfg = w->config();
  cfg.trace = opt.trace;
  SpanLog spans(Clock::now());
  const Iteration it = run_iteration(*w, cfg, opt.corrupt, spans);
  const Tally all = merge(w->out);
  const bool correct = it.error.empty() && all.bad == 0 && all.attempted > 0;
  const std::string digest = hex(simulated_digest(it, all));
  const Metrics e2e = end_to_end(spans, it, all);
  const Metrics layers = per_layer(spans, it, all, opt.trace, cfg.threads());

  // Readable summary on stderr.
  std::fprintf(stderr,
               "xlupc_perfbench %s seed=%llu: %llu attempted, %llu ok, %llu "
               "refused by the fault plan, %llu failed checks; %zu read and "
               "%zu write samples; digest %s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(all.attempted),
               static_cast<unsigned long long>(all.ok),
               static_cast<unsigned long long>(all.refused),
               static_cast<unsigned long long>(all.bad), all.read_ns.size(),
               all.write_ns.size(), digest.c_str());
  for (const Metric& m : e2e) {
    std::fprintf(stderr, "  %-16s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!it.error.empty()) std::fprintf(stderr, "error: %s\n", it.error.c_str());
  for (const std::string& p : w->out.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }

  // The result: one JSON object on the last line of stdout.
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "true" : "false");
  std::printf("\"correct\": %s, \"attempted\": %llu, \"ok\": %llu, "
              "\"refused\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.ok),
              static_cast<unsigned long long>(all.refused),
              static_cast<unsigned long long>(all.bad));
  std::printf("\"digest\": \"%s\", \"inputs_digest\": \"%s\", ",
              digest.c_str(), hex(all.inputs.h).c_str());
  print_metrics("metrics", e2e);
  std::printf(", ");
  print_metrics("layers", layers);
  std::printf(", \"spans\": [");
  const char* sep = "";
  for (const SpanLog::Span& s : spans.spans()) {
    std::printf("%s{\"name\": \"%s\", \"parent\": \"%s\", \"start_s\": %.9f, "
                "\"end_s\": %.9f, \"self_s\": %.9f}",
                sep, s.name.c_str(), s.parent.c_str(), s.start_s, s.end_s,
                spans.self(s.name));
    sep = ", ";
  }
  std::printf("], \"report_families\": [");
  sep = "";
  for (const std::string& f : report_families(it.report)) {
    std::printf("%s\"%s\"", sep, f.c_str());
    sep = ", ";
  }
  std::printf("], \"error\": \"%s\"}\n", json_escape(it.error).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
