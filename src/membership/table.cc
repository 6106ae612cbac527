#include "membership/table.h"

#include <algorithm>
#include <regex>

#include "util/strings.h"

namespace tamp::membership {

namespace {

bool row_before(const MembershipTable::Slot& slot, NodeId node) {
  return slot.first < node;
}

// The slot of `node` in a sorted row vector; end() if absent. Row ids are
// topology device ids, which are dense (a racked layout puts one switch id
// after every 20 hosts), so interpolating between the first and the last
// id lands on or next to the row. Walk a few slots from that guess, then
// binary-search the side that remains, so sparse ids still cost O(log n).
template <typename Vec>
auto locate(Vec& rows, NodeId node) {
  constexpr int kWalk = 4;
  const auto end = rows.end();
  if (rows.empty() || node < rows.front().first || node > rows.back().first) {
    return end;
  }
  const uint64_t span = rows.back().first - rows.front().first;
  const uint64_t offset = node - rows.front().first;
  auto it = rows.begin();
  if (span > 0) {
    it += static_cast<ptrdiff_t>(offset * (rows.size() - 1) / span);
  }
  // The first and last ids bound both walks, so neither leaves the vector.
  if (it->first < node) {
    for (int step = 0; step < kWalk; ++step) {
      if ((++it)->first >= node) return it->first == node ? it : end;
    }
    it = std::lower_bound(it + 1, end, node, row_before);
  } else if (it->first > node) {
    for (int step = 0; step < kWalk; ++step) {
      if ((--it)->first <= node) return it->first == node ? it : end;
    }
    it = std::lower_bound(rows.begin(), it, node, row_before);
  }
  return it != end && it->first == node ? it : end;
}

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
    const std::vector<MembershipTable::Slot>& entries,
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
  auto it = locate(entries_, node);
  return it == entries_.end() ? nullptr : &it->second;
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
    auto pos =
        std::lower_bound(entries_.begin(), entries_.end(), node, row_before);
    slot = &entries_.emplace(pos, node, std::move(entry))->second;
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
  auto it = locate(entries_, node);
  if (it != entries_.end() && it->second.row->incarnation() > incarnation) {
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
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

void MembershipTable::reconfirm_relay(NodeId node, NodeId relayed_by,
                                      sim::Time now) {
  if (node == relayed_by) return;
  MembershipEntry* entry = find_mutable(node);
  if (entry == nullptr || entry->liveness != Liveness::kRelayed) return;
  entry->relayed_by = relayed_by;
  entry->last_heard = now;
  track_relayed(*entry);
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
  auto it = locate(entries_, node);
  return it == entries_.end() ? nullptr : &it->second;
}

bool MembershipTable::contains(NodeId node) const {
  return locate(entries_, node) != entries_.end();
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

std::vector<NodeId> MembershipTable::expire(
    sim::Time now,
    const std::function<sim::Duration(const MembershipEntry&)>& timeout_for) {
  std::vector<NodeId> expired;
  oldest_relayed_ = std::numeric_limits<sim::Time>::max();
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    sim::Duration timeout = timeout_for(it->second);
    if (timeout >= 0 && now - it->second.last_heard > timeout) {
      expired.push_back(it->first);
    } else {
      track_relayed(it->second);
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  entries_.erase(keep, entries_.end());
  return expired;
}

}  // namespace tamp::membership
