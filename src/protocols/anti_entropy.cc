#include "protocols/anti_entropy.h"

namespace tamp::protocols {

using membership::DigestRowSummary;
using membership::Liveness;
using membership::MembershipEntry;
using membership::MembershipTable;
using membership::NodeId;
using membership::RefreshDeltaMsg;
using membership::RefreshDigestMsg;
using membership::RefreshPullMsg;

static_assert(kDigestBuckets >= 1 &&
              kDigestBuckets <= membership::kMaxDigestBuckets);

std::vector<const MembershipEntry*> AntiEntropy::scope(
    const Host& host, const MembershipTable& table, bool subtree) const {
  std::vector<const MembershipEntry*> rows;
  for (const auto& [id, entry] : table.entries()) {
    if (subtree && id != self_) {
      if (host.is_member(id)) continue;
      if (entry.liveness == Liveness::kRelayed &&
          entry.relayed_by != membership::kInvalidNode &&
          host.is_member(entry.relayed_by)) {
        continue;
      }
    }
    rows.push_back(&entry);
  }
  return rows;
}

void AntiEntropy::round(Host& host, const MembershipTable& table,
                        bool subtree) const {
  const auto rows = scope(host, table, subtree);
  RefreshDigestMsg msg;
  msg.origin = self_;
  msg.origin_incarnation = host.incarnation();
  msg.level = level_;
  msg.epoch = host.epoch();
  msg.subtree = subtree;
  msg.row_count = static_cast<uint32_t>(rows.size());
  msg.buckets.assign(kDigestBuckets, 0);
  if (subtree) msg.subjects.reserve(rows.size());
  for (const MembershipEntry* row : rows) {
    const uint64_t hash = row->row->hash();
    msg.view_hash ^= hash;
    msg.buckets[membership::digest_bucket_of(row->row->node(),
                                             kDigestBuckets)] ^= hash;
    // Table iteration is id-ascending, which is exactly the order the
    // delta-varint scope coding wants.
    if (subtree) msg.subjects.push_back(row->row->node());
  }
  host.send_digest(std::move(msg));
  host.note(Count::kDigestSent, 1);
}

std::vector<const MembershipEntry*> AntiEntropy::receiver_scope(
    const MembershipTable& table, const RefreshDigestMsg& msg) const {
  std::vector<const MembershipEntry*> rows;
  if (msg.subtree) {
    for (NodeId id : msg.subjects) {
      const MembershipEntry* entry = table.find(id);
      if (entry != nullptr) rows.push_back(entry);
    }
    return rows;
  }
  for (const auto& [id, entry] : table.entries()) {
    rows.push_back(&entry);
  }
  return rows;
}

void AntiEntropy::on_digest(Host& host, MembershipTable& table, sim::Time now,
                            const RefreshDigestMsg& msg) {
  if (msg.origin == self_) return;
  // Same stale-replay fence as update streams: a digest from a superseded
  // leadership life describes a pre-re-election world; comparing against it
  // (and worse, pulling rows from it) would resurrect that world.
  if (host.rejects_stale(msg.origin, msg.epoch, msg.origin_incarnation)) {
    due_.erase({msg.origin, msg.subtree});
    return;
  }
  due_[{msg.origin, msg.subtree}] =
      now + host.round_interval() + host.heartbeat_period();
  // Bucket indices are only meaningful in the one geometry a pull is read
  // in, so a digest in any other cannot be answered.
  if (msg.buckets.size() != kDigestBuckets) return;

  const auto rows = receiver_scope(table, msg);
  std::vector<size_t> row_buckets(rows.size());
  std::vector<uint64_t> buckets(kDigestBuckets, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    row_buckets[i] =
        membership::digest_bucket_of(rows[i]->row->node(), kDigestBuckets);
    buckets[row_buckets[i]] ^= rows[i]->row->hash();
  }
  std::vector<bool> mismatched(kDigestBuckets, false);
  bool any_mismatch = false;
  for (size_t b = 0; b < kDigestBuckets; ++b) {
    if (buckets[b] != msg.buckets[b]) {
      mismatched[b] = true;
      any_mismatch = true;
    }
  }

  // Rows in agreeing buckets are still being announced by the origin:
  // refresh them exactly as absorbing a full re-announcement would, minus
  // the bytes — re-rooting their provenance at the origin, the relay that
  // just vouched for them. Rows in mismatched buckets wait for the delta —
  // the ones the origin stopped announcing must keep aging toward orphan
  // expiry, or a lost LEAVE would never be repaired.
  std::vector<const MembershipEntry*> pulled;
  for (size_t i = 0; i < rows.size(); ++i) {
    const MembershipEntry* row = rows[i];
    if (mismatched[row_buckets[i]]) {
      pulled.push_back(row);
      continue;
    }
    if (row->row->node() == self_ || row->liveness != Liveness::kRelayed) {
      continue;
    }
    table.reconfirm_relay(*row, msg.origin, now);
  }
  if (any_mismatch) {
    send_pull(host, msg.origin, msg.subtree, pulled, mismatched);
  }
}

void AntiEntropy::send_pull(Host& host, NodeId origin, bool subtree,
                            const std::vector<const MembershipEntry*>& rows,
                            const std::vector<bool>& mismatched) const {
  RefreshPullMsg pull;
  pull.requester = self_;
  pull.level = level_;
  pull.epoch = host.epoch();
  pull.subtree = subtree;
  for (size_t b = 0; b < mismatched.size(); ++b) {
    if (mismatched[b]) pull.bucket_indices.push_back(static_cast<uint16_t>(b));
  }
  for (const MembershipEntry* row : rows) {
    pull.rows.push_back(DigestRowSummary{
        row->row->node(), row->row->incarnation(), row->row->hash()});
  }
  host.send_pull(origin, std::move(pull));
  host.note(Count::kPullSent, 1);
}

void AntiEntropy::check_overdue(Host& host, const MembershipTable& table,
                                sim::Time now) {
  for (auto it = due_.begin(); it != due_.end();) {
    const auto [origin, subtree] = it->first;
    // Only a member still leading this group owes downward rounds; any
    // member of it still represents its subtree upward.
    if (!host.is_member(origin) || (!subtree && host.leader() != origin)) {
      it = due_.erase(it);
      continue;
    }
    if (now >= it->second) {
      // The lost digest's scope is unknown here (a subtree digest names
      // its subjects), so pull every bucket and list every row we hold:
      // the origin confirms what it still covers and ships what we lack,
      // exactly as if the digest had arrived and matched nothing.
      it->second = now + host.round_interval();
      host.note(Count::kRoundMissed, 1);
      std::vector<const MembershipEntry*> rows;
      rows.reserve(table.size());
      for (const auto& [id, entry] : table.entries()) rows.push_back(&entry);
      send_pull(host, origin, subtree, rows,
                std::vector<bool>(kDigestBuckets, true));
    }
    ++it;
  }
}

void AntiEntropy::on_pull(Host& host, const MembershipTable& table,
                          const RefreshPullMsg& msg) const {
  if (msg.requester == self_) return;
  host.note(Count::kPullServed, 1);

  // The pull answers our digest, so its indices are in our geometry; one
  // outside it is from a digest we did not send — ignore it, not guess.
  std::vector<bool> wanted(kDigestBuckets, false);
  for (uint16_t b : msg.bucket_indices) {
    if (b < kDigestBuckets) wanted[b] = true;
  }
  std::map<NodeId, const DigestRowSummary*> theirs;
  for (const auto& row : msg.rows) theirs[row.subject] = &row;

  RefreshDeltaMsg delta;
  delta.responder = self_;
  delta.responder_incarnation = host.incarnation();
  delta.level = msg.level;
  delta.epoch = host.epoch();
  for (const MembershipEntry* row : scope(host, table, msg.subtree)) {
    if (!wanted[membership::digest_bucket_of(row->row->node(),
                                             kDigestBuckets)]) {
      continue;
    }
    auto it = theirs.find(row->row->node());
    if (it != theirs.end() && it->second->row_hash == row->row->hash()) {
      delta.confirmed.push_back(row->row->node());
      continue;
    }
    if (delta.entries.size() >= kDigestMaxRowsPerDelta) {
      // Divergence beyond the delta budget: stop here and let the requester
      // escalate to the full-image path (which admission control guards).
      delta.truncated = true;
      break;
    }
    delta.entries.push_back(row->row);
  }
  // Rows the requester listed that we do not hold in scope are deliberately
  // neither shipped nor confirmed: unrefreshed, they age into orphan expiry
  // at the requester — the digest form of lost-LEAVE repair.
  host.note(Count::kRowsShipped, delta.entries.size());
  host.note(Count::kRowsSuppressed, delta.confirmed.size());
  host.note(Count::kDeltaSent, 1);
  host.send_delta(msg.requester, std::move(delta));
}

void AntiEntropy::on_delta(Host& host, MembershipTable& table, sim::Time now,
                           const RefreshDeltaMsg& msg) const {
  if (msg.responder == self_) return;
  if (host.rejects_stale(msg.responder, msg.epoch,
                         msg.responder_incarnation)) {
    return;
  }
  host.absorb(msg.entries, msg.responder);
  for (NodeId id : msg.confirmed) {
    if (id == self_) continue;
    table.reconfirm_relay(id, msg.responder, now);
  }
  if (msg.truncated) {
    // The backstop demotion: only a delta that could not carry the whole
    // divergence escalates to an O(N) image, and that path sits behind the
    // responder's image_serve_budget like any other full-image exchange.
    host.note(Count::kFullFallback, 1);
    host.escalate(msg.responder);
  }
}

}  // namespace tamp::protocols
