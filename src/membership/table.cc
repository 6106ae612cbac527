#include "membership/table.h"

#include <algorithm>
#include <regex>

#include "util/strings.h"

namespace tamp::membership {

namespace {

void demote(MembershipEntry& entry, NodeId relayed_by) {
  if (entry.liveness == Liveness::kDirect) {
    entry.liveness = Liveness::kRelayed;
    entry.relayed_by = relayed_by;
  }
}

// Entries hosting a service `matches(name)` accepts on a partition the spec
// selects, sorted by node id.
template <typename NameMatch>
std::vector<const MembershipEntry*> select_providers(
    const util::IdMap<MembershipEntry>& entries,
    const NameMatch& matches, const std::string& partition_spec) {
  std::vector<const MembershipEntry*> out;
  auto wanted = util::expand_partition_spec(partition_spec);
  for (const auto& [id, entry] : entries) {
    for (const auto& service : entry.data().services) {
      if (!matches(service.name)) continue;
      bool partition_ok = !wanted.has_value();  // "*": any partition set
      if (wanted) {
        for (int p : service.partitions) {
          if (std::binary_search(wanted->begin(), wanted->end(), p)) {
            partition_ok = true;
            break;
          }
        }
      }
      if (partition_ok) {
        out.push_back(&entry);
        break;
      }
    }
  }
  return out;
}

}  // namespace

MembershipEntry* MembershipTable::find_mutable(NodeId node) {
  return entries_.find(node);
}

bool MembershipTable::tombstoned(NodeId node, Incarnation incarnation,
                                 sim::Time now) const {
  auto it = tombstones_.find(node);
  return it != tombstones_.end() && now < it->second.expires &&
         incarnation <= it->second.incarnation;
}

ApplyResult MembershipTable::apply(const RowRef& row, Liveness liveness,
                                   NodeId relayed_by, sim::Time now) {
  MembershipEntry* slot = find_mutable(row->node());
  return apply_at(slot, row, liveness, relayed_by, now);
}

ApplyResult MembershipTable::apply_at(MembershipEntry*& slot,
                                      const RowRef& row, Liveness liveness,
                                      NodeId relayed_by, sim::Time now) {
  const NodeId node = row->node();
  const Incarnation incarnation = row->incarnation();
  if (liveness == Liveness::kDirect) {
    // Hearing the node itself is authoritative: clear any tombstone.
    tombstones_.erase(node);
  } else if (tombstoned(node, incarnation, now)) {
    slot = nullptr;
    return ApplyResult::kStale;
  }

  if (slot == nullptr) {
    MembershipEntry entry;
    entry.row = row;
    entry.liveness = liveness;
    entry.relayed_by = relayed_by;
    entry.last_heard = now;
    slot = entries_.insert(node, std::move(entry)).first;
    track_relayed(*slot);
    return ApplyResult::kAdded;
  }

  MembershipEntry& entry = *slot;
  if (incarnation < entry.row->incarnation()) return ApplyResult::kStale;
  const bool same = same_row(*entry.row, *row);

  // A direct observation always wins over a relayed one; a relayed record of
  // the same incarnation must not downgrade a direct entry's liveness.
  bool upgrade = liveness == Liveness::kDirect;
  if (!upgrade && entry.liveness == Liveness::kDirect &&
      incarnation == entry.row->incarnation()) {
    // Still refresh content if it differs (e.g. a value update relayed
    // before the next direct heartbeat), but keep direct liveness.
    entry.last_heard = now;
    if (same) return ApplyResult::kRefreshed;
    entry.row = row;
    return ApplyResult::kUpdated;
  }

  if (!same) entry.row = row;
  entry.liveness = liveness;
  entry.relayed_by = relayed_by;
  entry.last_heard = now;
  track_relayed(entry);
  return same ? ApplyResult::kRefreshed : ApplyResult::kUpdated;
}

bool MembershipTable::remove(NodeId node, Incarnation incarnation,
                             sim::Time now) {
  const MembershipEntry* held = entries_.find(node);
  if (held != nullptr && held->row->incarnation() > incarnation) {
    return false;  // we know a newer life of this node
  }
  Tombstone& tomb = tombstones_[node];
  tomb.incarnation = std::max(tomb.incarnation, incarnation);
  tomb.expires = now + tombstone_ttl_;
  // Opportunistic GC of expired tombstones keeps the map bounded.
  for (auto t = tombstones_.begin(); t != tombstones_.end();) {
    if (now >= t->second.expires) {
      t = tombstones_.erase(t);
    } else {
      ++t;
    }
  }
  return entries_.erase(node);
}

void MembershipTable::reconfirm_relay(NodeId node, NodeId relayed_by,
                                      sim::Time now) {
  const MembershipEntry* entry = find(node);
  if (entry != nullptr) reconfirm_relay(*entry, relayed_by, now);
}

void MembershipTable::reconfirm_relay(const MembershipEntry& entry,
                                      NodeId relayed_by, sim::Time now) {
  if (entry.row->node() == relayed_by || entry.liveness != Liveness::kRelayed) {
    return;
  }
  // The table owns every entry it hands out; only the view is const.
  auto& row = const_cast<MembershipEntry&>(entry);
  row.relayed_by = relayed_by;
  row.last_heard = now;
  track_relayed(row);
}

void MembershipTable::apply_departing(const RowRef& row, sim::Time now) {
  MembershipEntry* slot = find_mutable(row->node());
  // A goodbye from an older life must not demote the newer one. A direct
  // record is refused only then, so otherwise `slot` holds the row.
  if (apply_at(slot, row, Liveness::kDirect, kInvalidNode, now) ==
      ApplyResult::kStale) {
    return;
  }
  demote(*slot, kInvalidNode);
  track_relayed(*slot);
}

void MembershipTable::demote_to_relayed(NodeId node, NodeId relayed_by) {
  MembershipEntry* entry = find_mutable(node);
  if (entry == nullptr) return;
  // The demoted row keeps the stamp its last direct observation left, which
  // may be older than every relayed one.
  demote(*entry, relayed_by);
  track_relayed(*entry);
}

const MembershipEntry* MembershipTable::find(NodeId node) const {
  return entries_.find(node);
}

bool MembershipTable::contains(NodeId node) const {
  return entries_.contains(node);
}

std::vector<NodeId> MembershipTable::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

std::vector<const MembershipEntry*> MembershipTable::lookup(
    std::string_view service, const std::string& partition_spec) const {
  return select_providers(
      entries(), [&](const std::string& name) { return name == service; },
      partition_spec);
}

std::vector<const MembershipEntry*> MembershipTable::lookup_regex(
    const std::string& service_regex,
    const std::string& partition_spec) const {
  std::regex pattern;
  try {
    pattern = std::regex(service_regex);
  } catch (const std::regex_error&) {
    return {};  // malformed pattern matches nothing
  }
  return select_providers(
      entries(),
      [&](const std::string& name) { return std::regex_match(name, pattern); },
      partition_spec);
}

}  // namespace tamp::membership
