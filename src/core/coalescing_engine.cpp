#include "core/coalescing_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/access_path.h"
#include "core/runtime.h"

namespace xlupc::core {

using sim::Task;

CoalescingEngine::CoalescingEngine(Runtime& rt, UpcThread& th,
                                   CompletionEngine& ce)
    : rt_(rt), th_(th), ce_(ce) {}

void CoalescingEngine::stage(NodeId dest, std::uint32_t slot_idx,
                             net::RdmaBatchOp op) {
  const CoalesceConfig& cc = rt_.cfg_.coalesce;
  Buffer& buf = buffers_[dest];
  // Wire footprint of the member across both directions: its descriptor
  // plus the PUT payload (forward leg) or the GET payload (reply leg).
  buf.bytes += net::kBatchMemberBytes + op.data.size() +
               (op.is_get ? op.len : 0);
  buf.ops.push_back(Staged{slot_idx, std::move(op)});
  ++stats_.staged_ops;
  if (buf.ops.size() >= cc.max_ops || buf.bytes >= cc.max_bytes) {
    flush(dest, FlushReason::kWatermark);
  }
}

void CoalescingEngine::flush(NodeId dest, FlushReason reason) {
  auto it = buffers_.find(dest);
  if (it == buffers_.end()) return;
  std::vector<Staged> staged = std::move(it->second.ops);
  buffers_.erase(it);

  switch (reason) {
    case FlushReason::kWatermark: ++stats_.flush_watermark; break;
    case FlushReason::kFence: ++stats_.flush_fence; break;
    case FlushReason::kWait: ++stats_.flush_wait; break;
    case FlushReason::kExplicit: ++stats_.flush_explicit; break;
  }
  ++stats_.batches;
  stats_.max_batch_ops =
      std::max(stats_.max_batch_ops,
               static_cast<std::uint64_t>(staged.size()));
  for (const Staged& s : staged) stats_.batched_bytes += s.op.len;

  rt_.sim_.spawn(run_batch(dest, std::move(staged)));
}

void CoalescingEngine::flush_all(FlushReason reason) {
  while (!buffers_.empty()) flush(buffers_.begin()->first, reason);
}

void CoalescingEngine::flush_containing(std::uint32_t slot_idx,
                                        FlushReason reason) {
  for (const auto& [dest, buf] : buffers_) {
    for (const Staged& s : buf.ops) {
      if (s.slot == slot_idx) {
        flush(dest, reason);
        return;
      }
    }
  }
}

Task<void> CoalescingEngine::run_batch(NodeId dest,
                                       std::vector<Staged> staged) {
  net::RdmaBatch batch;
  batch.ops.reserve(staged.size());
  // Moving the wire struct into the batch empties only its payload
  // vector; the scalar fields (is_get, len) stay readable below for the
  // scatter/trace pass.
  for (Staged& s : staged) batch.ops.push_back(std::move(s.op));

  const sim::Time t_start = rt_.sim_.now();
  const net::RdmaBatchResult res = co_await rt_.transport_.rdma_batch(
      net::Initiator{th_.node(), th_.core()}, dest, std::move(batch));
  // A failed aggregated message (retransmission budget exhausted) fails
  // every member op with the same status at wait().
  const bool ok = res.status == OpStatus::kOk;

  std::size_t g = 0;
  for (const Staged& s : staged) {
    if (s.op.is_get) {
      if (ok && g < res.get_data.size()) {
        std::memcpy(ce_.slot(s.slot).op.dst, res.get_data[g].data(),
                    s.op.len);
      }
      ++g;
      if (ok) ++rt_.counters_.am_gets;
    } else if (ok) {
      ++rt_.counters_.am_puts;
    }
    rt_.tracer_.record(TraceEvent{
        th_.id(), s.op.is_get ? TraceOp::kGet : TraceOp::kPut,
        TracePath::kBatch, dest, s.op.len, t_start, rt_.sim_.now()});
    ce_.complete(s.slot, res.status);
  }
}

}  // namespace xlupc::core
