#include "sim/fault_plan.h"

#include <algorithm>
#include <cmath>

namespace xlupc::sim {
namespace {

// splitmix64 finalizer — mixes the plan seed with a stream key so every
// link/node gets an independent, order-insensitive substream.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Rng& FaultPlan::link_rng(std::uint32_t src, std::uint32_t dst) {
  const std::uint64_t key = link_key(src, dst);
  if (Rng* rng = links_.find(key)) return *rng;
  return links_.try_emplace(key, mix(params_.seed ^ mix(key)));
}

Rng& FaultPlan::node_rng(std::uint32_t node) {
  if (Rng* rng = nodes_.find(node)) return *rng;
  // Offset the key space so node streams never collide with the
  // (src=0, dst=node) link streams.
  const std::uint64_t key = 0xfff0000000000000ull | node;
  return nodes_.try_emplace(node, mix(params_.seed ^ mix(key)));
}

FaultPlan::Verdict FaultPlan::transmit(std::uint32_t src, std::uint32_t dst) {
  if (!enabled_) return Verdict::kDeliver;
  Rng& rng = link_rng(src, dst);
  // One draw per attempt keeps the stream consumption independent of
  // which probabilities are configured.
  const double u = rng.uniform();
  if (u < params_.drop_prob) return Verdict::kDrop;
  if (u < params_.drop_prob + params_.corrupt_prob) return Verdict::kCorrupt;
  return Verdict::kDeliver;
}

bool FaultPlan::late_duplicate(std::uint32_t src, std::uint32_t dst) {
  if (!enabled_ || params_.dup_prob <= 0.0) return false;
  return link_rng(src, dst).chance(params_.dup_prob);
}

bool FaultPlan::pin_fails(std::uint32_t node) {
  if (!enabled_ || params_.pin_fail_prob <= 0.0) return false;
  return node_rng(node).chance(params_.pin_fail_prob);
}

Duration FaultPlan::rto_after(std::uint32_t attempt) const {
  double rto = static_cast<double>(params_.rto);
  const double cap = static_cast<double>(params_.rto_cap);
  for (std::uint32_t i = 0; i < attempt && rto < cap; ++i) {
    rto *= params_.rto_backoff;
  }
  return static_cast<Duration>(std::min(rto, cap));
}

Duration FaultPlan::stall_remaining(std::uint32_t node, Time now) const {
  if (!enabled_) return 0;
  Duration remaining = 0;
  for (const NicStallWindow& w : params_.nic_stalls) {
    if (w.node != node) continue;
    if (now >= w.start && now < w.start + w.length) {
      remaining = std::max(remaining, w.start + w.length - now);
    }
  }
  return remaining;
}

double FaultPlan::slowdown(std::uint32_t node, Time now) const {
  if (!enabled_) return 1.0;
  double factor = 1.0;
  for (const NodeSlowdown& w : params_.slowdowns) {
    if (w.node != node) continue;
    if (now >= w.start && now < w.start + w.length) {
      factor = std::max(factor, w.factor);
    }
  }
  return factor;
}

bool FaultPlan::node_crashed(std::uint32_t node, Time now) const {
  if (!enabled_) return false;
  for (const NodeCrash& c : params_.crashes) {
    if (c.node == node && now >= c.at) return true;
  }
  return false;
}

Time FaultPlan::crash_time(std::uint32_t node) const {
  Time at = kNever;
  if (!enabled_) return at;
  for (const NodeCrash& c : params_.crashes) {
    if (c.node == node) at = std::min(at, c.at);
  }
  return at;
}

bool FaultPlan::link_down(std::uint32_t a, std::uint32_t b, Time now) const {
  if (!enabled_) return false;
  for (const LinkDownWindow& w : params_.link_downs) {
    const bool matches = (w.a == a && w.b == b) || (w.a == b && w.b == a);
    if (!matches) continue;
    if (now >= w.start && now < w.start + w.length) return true;
  }
  return false;
}

std::uint32_t FaultPlan::failover_route(std::uint32_t src, std::uint32_t dst,
                                        std::uint32_t nroutes) const {
  if (nroutes == 0) return 0;
  // Stateless: flows hash onto alternates without touching the per-link
  // verdict streams, so enabling failover never shifts message fates.
  const std::uint64_t key = link_key(src, dst);
  return static_cast<std::uint32_t>(mix(params_.seed ^ mix(~key)) % nroutes);
}

}  // namespace xlupc::sim
