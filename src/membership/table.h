// The local yellow-page directory each node maintains.
//
// Soft state: entries are refreshed by heartbeats/updates and expire when
// their refresh source goes quiet (the protocol decides the timeout policy;
// the table just executes it). Incarnation numbers order information about
// a node across restarts, and a *time-bounded* tombstone set prevents a
// removed node from flapping back in when stale piggybacked joins are
// replayed. Tombstones expire (so a healed network partition can
// re-introduce nodes whose incarnation never changed), and a direct
// observation — hearing the node's own heartbeat — always overrides one.
//
// Rows are keyed by node id in a util::IdMap: fixed pages of eight slots,
// found by their offset from the first page when ids are dense (topology
// device ids) and by binary search otherwise. Adding a row writes one slot
// and moves no other row, and iteration stays in id order. Memory is
// O(rows) for any spread of ids, so ids off the wire, which can be any
// uint32_t, cannot inflate it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "membership/types.h"
#include "sim/time.h"
#include "util/id_map.h"

namespace tamp::membership {

enum class ApplyResult : uint8_t {
  kAdded,      // node was not in the directory
  kUpdated,    // contents changed (new incarnation or new data)
  kRefreshed,  // same data; last_heard bumped
  kStale,      // older incarnation than what we have (or tombstoned)
};

class MembershipTable {
 public:
  explicit MembershipTable(sim::Duration tombstone_ttl = 30 * sim::kSecond)
      : tombstone_ttl_(tombstone_ttl) {}
  // Merge `row` into the directory. `liveness`/`relayed_by` describe how
  // this node learned it (paper: the SHM "local part" vs "external part").
  // A direct observation upgrades a relayed entry; a relayed record never
  // downgrades a direct one of the same incarnation. Direct observations
  // always clear a tombstone; a relayed record never does, solicited
  // exchanges included (the protocol relies on it to keep a node it just
  // declared dead from flapping back in from a lagging responder's image).
  ApplyResult apply(const RowRef& row, Liveness liveness,
                    NodeId relayed_by, sim::Time now);
  // apply() of a relayed record whose provenance is sticky: when the row
  // held now is relayed by a node `still_heard` accepts, it keeps that
  // relay, and `relayed_by` is only the fallback. The rule reads the slot
  // apply() merges into, so a relayed row costs one lookup.
  template <typename StillHeard>
  ApplyResult apply_relayed(const RowRef& row, NodeId relayed_by,
                            sim::Time now, const StillHeard& still_heard) {
    MembershipEntry* slot = find_mutable(row->node());
    if (slot != nullptr && slot->liveness == Liveness::kRelayed &&
        slot->relayed_by != kInvalidNode && still_heard(slot->relayed_by)) {
      relayed_by = slot->relayed_by;
    }
    return apply_at(slot, row, Liveness::kRelayed, relayed_by, now);
  }
  // A direct observation from a node that is leaving earshot (a goodbye):
  // apply(row, kDirect, kInvalidNode, now), then, unless that was stale (a
  // goodbye from an older life), demote_to_relayed(node, kInvalidNode) on
  // the same row.
  void apply_departing(const RowRef& row, sim::Time now);

  // Remove if our info about `node` is not newer than `incarnation`.
  // Records a tombstone (valid for tombstone_ttl from `now`) so stale
  // relayed joins of that incarnation stay out.
  bool remove(NodeId node, Incarnation incarnation, sim::Time now);

  // Re-root a relayed entry's provenance at `relayed_by` and refresh its
  // stamp: the new relay vouched (via an anti-entropy digest) that it holds
  // this exact row, which is what absorbing a full re-announcement from it
  // would record. No-op for direct or missing entries, or when the entry is
  // the relay itself (a self-rooted relay would be a provenance cycle).
  void reconfirm_relay(NodeId node, NodeId relayed_by, sim::Time now);
  // The same for a row already in hand: `entry` must be a row of this
  // table (from find(), lookup() or entries()), so no lookup is made.
  void reconfirm_relay(const MembershipEntry& entry, NodeId relayed_by,
                       sim::Time now);

  // Downgrade a direct entry to relayed (the protocol no longer hears the
  // node itself; its liveness is now second-hand). No-op otherwise.
  void demote_to_relayed(NodeId node, NodeId relayed_by);

  // A pointer returned by find()/lookup() or a reference from entries()
  // stays valid until that row is erased (remove() or expire()).
  const MembershipEntry* find(NodeId node) const;
  bool contains(NodeId node) const;
  size_t size() const { return entries_.size(); }
  std::vector<NodeId> node_ids() const;

  // All entries as (id, entry) pairs in id order (deterministic iteration).
  const util::IdMap<MembershipEntry>& entries() const { return entries_; }

  // Service lookup: nodes registering exactly `service`; `partition_spec`
  // ("*", "2", "1-3", "0,2") selects nodes hosting at least one listed
  // partition. Returns matching entries sorted by node id.
  std::vector<const MembershipEntry*> lookup(
      std::string_view service, const std::string& partition_spec) const;
  // The same, but `service_regex` must match the full service name. The
  // pattern is compiled once per call; a malformed one matches nothing.
  std::vector<const MembershipEntry*> lookup_regex(
      const std::string& service_regex,
      const std::string& partition_spec) const;

  // Expire entries whose last_heard is older than the per-entry Duration
  // `timeout_for(entry)` returns; a negative one never expires. Expired
  // entries are removed (no tombstone: an expiry is a local timeout, not
  // authoritative news of a newer state) and their ids are returned.
  template <typename TimeoutFor>
  std::vector<NodeId> expire(sim::Time now, const TimeoutFor& timeout_for) {
    std::vector<NodeId> expired;
    oldest_relayed_ = std::numeric_limits<sim::Time>::max();
    entries_.erase_if([&](NodeId id, const MembershipEntry& entry) {
      const sim::Duration timeout = timeout_for(entry);
      if (timeout >= 0 && now - entry.last_heard > timeout) {
        expired.push_back(id);
        return true;
      }
      track_relayed(entry);
      return false;
    });
    return expired;
  }

  // A lower bound on every relayed row's last_heard; the largest Time when
  // there is none. Each relayed stamp and each demotion can only lower it,
  // and expire() re-tightens it, so a relayed row with timeout T can have
  // expired only once now - oldest_relayed_heard() > T.
  sim::Time oldest_relayed_heard() const { return oldest_relayed_; }

 private:
  struct Tombstone {
    Incarnation incarnation = 0;
    sim::Time expires = 0;
  };

  bool tombstoned(NodeId node, Incarnation incarnation, sim::Time now) const;

  MembershipEntry* find_mutable(NodeId node);
  // The merge behind every apply. `slot` is the row held for row->node()
  // (nullptr when absent), found by the caller's one lookup; on return it
  // is the row the directory now holds (nullptr when a tombstone refused
  // the record).
  ApplyResult apply_at(MembershipEntry*& slot, const RowRef& row,
                       Liveness liveness, NodeId relayed_by, sim::Time now);
  // Lowers oldest_relayed_ to `entry`'s stamp if the entry is relayed; run
  // after every write of a stamp or a liveness.
  void track_relayed(const MembershipEntry& entry) {
    if (entry.liveness == Liveness::kRelayed) {
      oldest_relayed_ = std::min(oldest_relayed_, entry.last_heard);
    }
  }

  sim::Duration tombstone_ttl_;
  util::IdMap<MembershipEntry> entries_;
  std::map<NodeId, Tombstone> tombstones_;
  sim::Time oldest_relayed_ = std::numeric_limits<sim::Time>::max();
};

}  // namespace tamp::membership
