// The per-simulation pool that interns directory rows.
//
// Every node keeps the whole directory, so a simulation of n nodes holds up
// to n copies of each of n rows. The pool makes those copies one: rows are
// hash-consed on (node, incarnation) and told apart by their canonical
// bytes, so every table, message and image holding the same content holds
// the same immutable Row. Delivered messages carry their sender's rows, so
// only the reference decoder (decode_message over bytes) reads rows off the
// wire. The digest hash is computed once, when the row is built.
//
// The pool belongs to one simulation (row_pool(net) keeps it on the
// Network), never to the process: parallel scenario runners drive
// simulations on several threads at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "membership/types.h"
#include "membership/wire.h"

namespace tamp::net {
class Network;
}

namespace tamp::membership {

class RowPool {
 public:
  RowPool() = default;
  RowPool(const RowPool&) = delete;
  RowPool& operator=(const RowPool&) = delete;

  // The pooled row with `data`'s content, built on first use.
  RowRef intern(EntryData data);

  // Reads one encoded row with decode_entry and interns it, so canonical
  // bytes yield the held row and a non-canonical encoding (duplicate map
  // key, overlong varint) yields the canonical one. Returns nullptr, with
  // the reader failed, on a malformed row.
  RowRef decode(WireReader& r);

  // Version slots held, live or awaiting a sweep. Rows nobody holds any
  // more are swept once the slot count doubles, so this stays under twice
  // the live rows plus a small floor.
  size_t size() const { return size_; }

 private:
  struct Key {
    NodeId node = kInvalidNode;
    Incarnation incarnation = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(
          (uint64_t{key.node} * 0x9e3779b97f4a7c15ULL) ^ key.incarnation);
    }
  };
  // The rows of one (node, incarnation): value edits within a life make
  // several, of which only the few some holder still lags on stay live.
  using Versions = std::vector<std::weak_ptr<const Row>>;

  static RowRef find(const Versions& versions, const uint8_t* bytes,
                     size_t size);
  RowRef insert(RowRef row);
  void sweep();

  std::unordered_map<Key, Versions, KeyHash> versions_;
  size_t size_ = 0;
  size_t sweep_at_ = kMinSweep;
  static constexpr size_t kMinSweep = 64;
};

// The simulation's pool, created on first use and owned by the Network.
RowPool& row_pool(net::Network& net);

}  // namespace tamp::membership
