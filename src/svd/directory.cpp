#include "svd/directory.h"

#include <stdexcept>

namespace xlupc::svd {

Directory::Directory(std::uint32_t threads) : threads_(threads) {
  if (threads == 0) {
    throw std::invalid_argument("Directory: thread count must be positive");
  }
}

void Directory::check_partition(std::uint32_t partition) const {
  if (partition != kAllPartition && partition >= threads_) {
    throw std::out_of_range("Directory: bad partition number");
  }
}

Handle Directory::add_local(std::uint32_t partition, ThreadId writer,
                            ControlBlock cb) {
  // Single-writer rule (Sec. 2.1): each thread updates only its own
  // partition; the ALL partition is written under collective
  // synchronization, so any thread may append there.
  if (partition != kAllPartition && partition != writer) {
    throw std::logic_error(
        "Directory::add_local: thread may only write its own partition");
  }
  check_partition(partition);
  const Handle h{partition, (*next_index_.try_emplace(partition).first)++};
  entries_.try_emplace(h, cb);
  ++adds_;
  return h;
}

void Directory::add_remote(Handle h, std::uint64_t total_bytes,
                           ObjectKind kind) {
  check_partition(h.partition);
  ControlBlock cb;
  cb.kind = kind;
  cb.total_bytes = total_bytes;
  // No local address: translation for this object is impossible on this
  // replica — that is the point of the design.
  entries_.try_emplace(h, cb);
  // Keep index allocation ahead of remotely-announced handles so a later
  // local allocation cannot collide.
  std::uint32_t& next = *next_index_.try_emplace(h.partition).first;
  if (h.index >= next) next = h.index + 1;
  ++adds_;
}

ControlBlock* Directory::find(Handle h) {
  check_partition(h.partition);
  return entries_.find(h);
}

const ControlBlock* Directory::find(Handle h) const {
  return const_cast<Directory*>(this)->find(h);
}

Addr Directory::translate(Handle h, std::uint64_t offset) const {
  const ControlBlock* cb = find(h);
  if (cb == nullptr) {
    throw std::logic_error("Directory::translate: unknown handle");
  }
  if (cb->local_base == kNullAddr) {
    throw std::logic_error(
        "Directory::translate: no local address on this replica "
        "(translation only happens on the home node)");
  }
  if (offset >= cb->local_bytes && !(offset == 0 && cb->local_bytes == 0)) {
    throw std::out_of_range("Directory::translate: offset beyond local piece");
  }
  return cb->local_base + offset;
}

bool Directory::remove(Handle h) {
  check_partition(h.partition);
  const bool erased = entries_.erase(h);
  if (erased) ++removes_;
  return erased;
}

std::size_t Directory::partition_size(std::uint32_t partition) const {
  check_partition(partition);
  std::size_t n = 0;
  entries_.for_each([&](const Handle& h, const ControlBlock&) {
    n += h.partition == partition;
  });
  return n;
}

}  // namespace xlupc::svd
