// Message types exchanged by the XLUPC messaging layer.
//
// The transport carries SVD handles as opaque 64-bit values (the SVD
// library packs/unpacks them); translation to addresses happens only in
// the target-side handlers, exactly as in the paper's design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/types.h"
#include "sim/pool.h"

namespace xlupc::net {

/// Message payload buffer. Backed by the simulation pool: payloads are
/// allocated and freed once or twice per simulated operation, and the
/// size-class freelists recycle them instead of hitting malloc
/// (docs/PERFORMANCE.md).
using Bytes = std::vector<std::byte, sim::PoolAllocator<std::byte>>;

/// Remote base address + RDMA key, piggybacked on replies/ACKs to
/// populate the initiator's remote address cache (Sec. 3).
struct BaseInfo {
  Addr base = kNullAddr;
  RdmaKey key = 0;
};

/// AM GET request: fetch `len` bytes at `offset` within the object named
/// by `svd_handle` on the target. `want_base` asks the target to pin the
/// object and piggyback its base address on the reply.
struct GetRequest {
  std::uint64_t svd_handle = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  bool want_base = false;
  std::uint32_t target_core = 0;  ///< core owning the data's UPC thread
  /// Initiator-side only (not on the wire): identity of the private
  /// destination buffer, used to charge/cache its registration on
  /// zero-copy (rendezvous) paths.
  Addr local_buf = kNullAddr;
};

/// Where an AM GET lands at the initiator: the data plus the optional
/// piggybacked base address. The caller owns it; Transport::get fills it
/// and returns the GET's status.
struct GetReply {
  Bytes data;
  std::optional<BaseInfo> base;
};

/// AM PUT request (eager): deliver `data` into the object at `offset`.
struct PutRequest {
  std::uint64_t svd_handle = 0;
  std::uint64_t offset = 0;
  Bytes data;
  bool want_base = false;
  std::uint32_t target_core = 0;
  /// Initiator-side only: identity of the private source buffer for
  /// zero-copy (rendezvous) registration accounting.
  Addr local_buf = kNullAddr;
};

/// PUT acknowledgement carrying the optional piggybacked base address.
struct PutAck {
  std::optional<BaseInfo> base;
};

// --- aggregated small-op batches (docs/COALESCING.md) ---

/// One member operation of an aggregated batch. Members carry the same
/// SVD-handle + offset addressing as the AM path (translation happens in
/// the target-side handler, per leg); PUT members carry their payload
/// inline, GET members get their data back in the RdmaBatchResult.
struct RdmaBatchOp {
  bool is_get = true;
  std::uint64_t svd_handle = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint32_t target_core = 0;  ///< core owning the member's UPC thread
  Bytes data;    ///< PUT payload (empty for GETs)
};

/// Aggregated wire message: many small operations bound for one node,
/// sent as a single framed message through the reliability layer. A
/// retransmitted batch leg is applied at most once (the ProtocolEngine's
/// sequence-number window suppresses late duplicates), so member ops can
/// never be duplicate-applied.
struct RdmaBatch {
  std::vector<RdmaBatchOp> ops;

  std::size_t size() const noexcept { return ops.size(); }
};

/// Reply to an RdmaBatch: the GET members' payloads, in batch order, or
/// the failure every member of the batch shares (no payloads then).
struct RdmaBatchResult {
  std::vector<Bytes> get_data;
  OpStatus status = OpStatus::kOk;
};

/// Wire size of one batch member's descriptor (handle + offset + length
/// framing inside the aggregated message).
inline constexpr std::size_t kBatchMemberBytes = 24;

// --- control-plane messages (SVD maintenance, locks) ---

/// Wire form of an array distribution (enough for any node to rebuild the
/// geometry and allocate its local piece).
struct WireLayout {
  std::uint8_t dims = 1;
  std::uint64_t elem_size = 1;
  std::uint64_t extent0 = 0, extent1 = 0;
  std::uint64_t block0 = 0, block1 = 0;
};

/// Notification that a thread allocated a shared variable
/// (upc_global_alloc and friends): remote SVD replicas append a control
/// block to the owner's partition and allocate their local piece of the
/// distributed object.
struct SvdAllocNotice {
  std::uint64_t svd_handle = 0;
  WireLayout layout;
  std::uint8_t kind = 0;  ///< svd::ObjectKind
};

/// Notification that a shared variable was freed: remote nodes eagerly
/// invalidate their address-cache entries for it (Sec. 3.1).
struct SvdFreeNotice {
  std::uint64_t svd_handle = 0;
};

/// Full-table resolution (the O(nodes x objects) distributed table of
/// remote addresses the paper rejects in Sec. 2.1, implemented for the
/// resolution-strategy ablation): a node publishes the base address of
/// its piece of a shared object to every other node at allocation time.
struct SvdBasePublish {
  std::uint64_t svd_handle = 0;
  NodeId origin = 0;
  Addr base = kNullAddr;
  RdmaKey key = 0;
};

// --- atomic memory operations (docs/COMM_ENGINE.md verb table) ---

/// The two remote atomic verbs. Both fetch the 64-bit word at the
/// target, then FAA stores `old + operand` while CAS stores `operand`
/// only if the word equalled `compare`; the old value travels back
/// either way.
enum class AmoVerb : std::uint8_t { kFaa, kCas };

/// The single AMO wire request, shared by both lowerings: the GM/LAPI
/// AM-handler path translates svd_handle+offset on the home CPU, the IB
/// NIC-offload path uses the initiator's cached remote address instead.
/// Rides ProtocolEngine seqno/ACK, so a retransmitted or duplicated
/// request is applied exactly once.
struct AmoRequest {
  AmoVerb verb = AmoVerb::kFaa;
  std::uint64_t svd_handle = 0;
  std::uint64_t offset = 0;   ///< byte offset within the home's piece
  std::uint64_t operand = 0;  ///< FAA delta / CAS desired value
  std::uint64_t compare = 0;  ///< CAS expected value
  std::uint32_t target_core = 0;  ///< core owning the data's UPC thread
  /// Initiator-side only (not on the wire): cached remote address of the
  /// word, set on an address-cache hit to enable the offloaded lowering.
  Addr raddr = kNullAddr;
};

/// Wire size of an AMO request (verb + handle + offset + two operands).
inline constexpr std::size_t kAmoBytes = 40;

/// upc_lock / upc_unlock protocol messages, serviced at the lock's home.
struct LockRequest {
  std::uint64_t svd_handle = 0;
  ThreadId requester = 0;
  bool try_only = false;
};
struct LockGrant {
  std::uint64_t svd_handle = 0;
  ThreadId requester = 0;
  bool granted = true;
};
struct LockRelease {
  std::uint64_t svd_handle = 0;
  ThreadId holder = 0;
};

using ControlMsg =
    std::variant<SvdAllocNotice, SvdFreeNotice, SvdBasePublish, LockRequest,
                 LockGrant, LockRelease>;

/// Wire size of a control message (fixed small AM).
inline constexpr std::size_t kControlBytes = 32;

}  // namespace xlupc::net
