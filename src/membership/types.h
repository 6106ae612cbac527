// Core value types of the membership service's "yellow page" directory.
//
// A directory entry describes one cluster node: identity, incarnation (to
// tell a restarted node from its previous life), machine configuration, the
// service instances it exports, and arbitrary key/value attributes published
// through MService::update_value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/ids.h"
#include "sim/time.h"

namespace tamp::membership {

// Node identity. Equal to the simulated HostId; its total order is what the
// bully election uses (lowest id wins leadership).
using NodeId = net::HostId;
inline constexpr NodeId kInvalidNode = net::kInvalidHost;

// Monotonically increasing per boot; lets the protocol reject stale
// information about an older incarnation of a restarted node.
using Incarnation = uint64_t;

// Leadership epoch: a per-(level, group) counter minted each time a node
// becomes leader of the group. Orthogonal to Incarnation — a node paused
// and resumed keeps its incarnation, but the leadership it held may have
// been superseded in the meantime. Traffic carrying an older epoch than
// the locally known leadership for the level is stale replay and fenced.
using Epoch = uint64_t;

// One exported service instance: name plus the data partitions this node
// hosts for it, plus service-specific parameters (e.g. HTTP "Port").
struct ServiceRegistration {
  std::string name;
  std::vector<int> partitions;
  std::map<std::string, std::string> params;

  bool operator==(const ServiceRegistration&) const = default;
};

// Relatively stable machine configuration (the paper's announcer reads this
// from /proc; we synthesize it).
struct MachineInfo {
  uint16_t cpus = 2;
  uint32_t memory_mb = 2048;
  std::string os = "linux-2.4.20";

  bool operator==(const MachineInfo&) const = default;
};

// The serializable per-node record exchanged by all protocols.
struct EntryData {
  NodeId node = kInvalidNode;
  Incarnation incarnation = 0;
  MachineInfo machine;
  std::vector<ServiceRegistration> services;
  std::map<std::string, std::string> values;  // update_value key/values

  bool operator==(const EntryData&) const = default;
};

// One replicated directory row: an EntryData together with its canonical
// wire bytes (what encode_entry writes) and its anti-entropy digest hash
// (row_hash_of_encoding over those bytes). Rows are immutable and shared by
// reference: the node a row describes builds it once, and every table,
// message and image holding it holds that same Row. Only make_row() builds
// one, so bytes and hash always match the data.
class Row;
class RowRef;
RowRef make_row(EntryData data);  // membership/codec.cc

// A counted reference to a Row, 8 bytes: the count lives in the Row. It is
// not atomic, because a Row never leaves the simulation that built it, and
// a simulation runs on one thread (sim::ParallelRunner gives each scenario
// one worker). So no Row may be reachable from two threads, e.g. through a
// static that scenarios running in parallel both read.
class RowRef {
 public:
  RowRef() = default;
  RowRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  RowRef(const RowRef& other) : row_(other.row_) { acquire(); }
  RowRef(RowRef&& other) noexcept : row_(std::exchange(other.row_, nullptr)) {}
  RowRef& operator=(RowRef other) noexcept {
    std::swap(row_, other.row_);
    return *this;
  }
  ~RowRef() { release(); }

  const Row* get() const { return row_; }
  const Row* operator->() const { return row_; }
  const Row& operator*() const { return *row_; }
  explicit operator bool() const { return row_ != nullptr; }
  // References held to this row, this one included; 0 for a null ref.
  uint32_t use_count() const;

  friend bool operator==(const RowRef& a, const RowRef& b) {
    return a.row_ == b.row_;
  }

 private:
  friend RowRef make_row(EntryData data);
  explicit RowRef(const Row* row) : row_(row) { acquire(); }
  void acquire() const;
  void release() const;

  const Row* row_ = nullptr;
};

class Row {
 public:
  const EntryData& data() const { return data_; }
  NodeId node() const { return data_.node; }
  Incarnation incarnation() const { return data_.incarnation; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  uint64_t hash() const { return hash_; }

  // Rows alive in the process, across all simulations: what a test reads
  // to see that dropping the last reference destroyed a row.
  static size_t live_count() { return live_.load(std::memory_order_relaxed); }

 private:
  friend class RowRef;
  friend RowRef make_row(EntryData data);
  Row(EntryData data, std::vector<uint8_t> bytes, uint64_t hash)
      : data_(std::move(data)), bytes_(std::move(bytes)), hash_(hash) {
    live_.fetch_add(1, std::memory_order_relaxed);
  }
  ~Row() { live_.fetch_sub(1, std::memory_order_relaxed); }
  Row(const Row&) = delete;
  Row& operator=(const Row&) = delete;

  static inline std::atomic<size_t> live_{0};

  EntryData data_;
  std::vector<uint8_t> bytes_;
  uint64_t hash_ = 0;
  mutable uint32_t refs_ = 0;  // RowRefs held; see RowRef
};

inline uint32_t RowRef::use_count() const {
  return row_ != nullptr ? row_->refs_ : 0;
}
inline void RowRef::acquire() const {
  if (row_ != nullptr) ++row_->refs_;
}
inline void RowRef::release() const {
  if (row_ != nullptr && --row_->refs_ == 0) delete row_;
}

// Content equality: the same object, or else the same hash and then the
// same canonical bytes. Rows built apart can be equal (gossip seed rows, an
// owner edit that writes the value it had, the reference decoder's rows).
inline bool same_row(const Row& a, const Row& b) {
  return &a == &b || (a.hash() == b.hash() && a.bytes() == b.bytes());
}

// Why the local directory believes in an entry.
enum class Liveness : uint8_t {
  kDirect,   // we hear this node's own heartbeats on a shared channel
  kRelayed,  // learned via a group leader; its lifetime is tied to that leader
};

// A directory entry: the shared row plus local soft-state bookkeeping.
struct MembershipEntry {
  RowRef row;
  Liveness liveness = Liveness::kDirect;
  NodeId relayed_by = kInvalidNode;  // leader this entry depends on
  sim::Time last_heard = 0;          // local clock of last refresh

  const EntryData& data() const { return row->data(); }
};
static_assert(sizeof(RowRef) == sizeof(void*));
static_assert(sizeof(MembershipEntry) == 24,
              "a directory slot: RowRef 8, last_heard 8, relay 4, liveness 1");

}  // namespace tamp::membership
