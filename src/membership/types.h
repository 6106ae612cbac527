// Core value types of the membership service's "yellow page" directory.
//
// A directory entry describes one cluster node: identity, incarnation (to
// tell a restarted node from its previous life), machine configuration, the
// service instances it exports, and arbitrary key/value attributes published
// through MService::update_value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
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
using RowRef = std::shared_ptr<const Row>;
RowRef make_row(EntryData data);  // membership/codec.cc

class Row {
 public:
  const EntryData& data() const { return data_; }
  NodeId node() const { return data_.node; }
  Incarnation incarnation() const { return data_.incarnation; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  uint64_t hash() const { return hash_; }

 private:
  friend RowRef make_row(EntryData data);
  Row(EntryData data, std::vector<uint8_t> bytes, uint64_t hash)
      : data_(std::move(data)), bytes_(std::move(bytes)), hash_(hash) {}

  EntryData data_;
  std::vector<uint8_t> bytes_;
  uint64_t hash_ = 0;
};

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

}  // namespace tamp::membership
