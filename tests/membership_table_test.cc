#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "membership/codec.h"
#include "membership/table.h"
#include "util/rng.h"

namespace tamp::membership {
namespace {

EntryData entry(NodeId node, Incarnation inc = 1) {
  EntryData e = make_representative_entry(node, inc);
  return e;
}

// Two calls give two distinct rows of equal content.
RowRef row(NodeId node, Incarnation inc = 1) {
  return make_row(entry(node, inc));
}

TEST(Codec, EntryRoundTrip) {
  EntryData original = entry(7, 3);
  WireWriter w;
  encode_entry(w, original);
  auto buffer = w.take();
  WireReader r(buffer);
  auto decoded = decode_entry(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Codec, RepresentativeEntryNearPaperSize) {
  // The paper measured 228 bytes of per-node membership information.
  size_t size = encoded_entry_size(entry(42));
  EXPECT_GT(size, 180u);
  EXPECT_LT(size, 280u);
}

TEST(Codec, TruncatedBufferFailsCleanly) {
  WireWriter w;
  encode_entry(w, entry(1));
  auto buffer = w.take();
  for (size_t cut = 0; cut + 1 < buffer.size(); cut += 7) {
    WireReader r(buffer.data(), cut);
    auto decoded = decode_entry(r);
    EXPECT_FALSE(decoded.has_value()) << "cut=" << cut;
  }
}

TEST(Wire, VarintRoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 40,
                     0xffffffffffffffffull}) {
    WireWriter w;
    w.varint(v);
    WireReader r(w.view().data(), w.view().size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Wire, PadTo) {
  WireWriter w;
  w.u32(5);
  w.pad_to(100);
  EXPECT_EQ(w.size(), 100u);
  w.pad_to(50);  // never shrinks
  EXPECT_EQ(w.size(), 100u);
}

TEST(Table, ApplyAddsAndRefreshes) {
  MembershipTable table;
  EXPECT_EQ(table.apply(row(1), Liveness::kDirect, kInvalidNode, 100),
            ApplyResult::kAdded);
  EXPECT_EQ(table.apply(row(1), Liveness::kDirect, kInvalidNode, 200),
            ApplyResult::kRefreshed);
  EXPECT_EQ(table.find(1)->last_heard, 200);
  EXPECT_EQ(table.size(), 1u);
}

TEST(Table, NewerIncarnationUpdates) {
  MembershipTable table;
  table.apply(row(1, 1), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_EQ(table.apply(row(1, 2), Liveness::kDirect, kInvalidNode, 1),
            ApplyResult::kUpdated);
  EXPECT_EQ(table.find(1)->data().incarnation, 2u);
}

TEST(Table, OlderIncarnationIsStale) {
  MembershipTable table;
  table.apply(row(1, 5), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_EQ(table.apply(row(1, 4), Liveness::kDirect, kInvalidNode, 1),
            ApplyResult::kStale);
  EXPECT_EQ(table.find(1)->data().incarnation, 5u);
}

TEST(Table, RelayedDoesNotDowngradeDirect) {
  MembershipTable table;
  table.apply(row(1), Liveness::kDirect, kInvalidNode, 0);
  table.apply(row(1), Liveness::kRelayed, 9, 1);
  EXPECT_EQ(table.find(1)->liveness, Liveness::kDirect);
  // But a relayed record with *new content* still refreshes the data.
  EntryData updated = entry(1);
  updated.values["hostname"] = "renamed";
  EXPECT_EQ(table.apply(make_row(updated), Liveness::kRelayed, 9, 2),
            ApplyResult::kUpdated);
  EXPECT_EQ(table.find(1)->data().values.at("hostname"), "renamed");
  EXPECT_EQ(table.find(1)->liveness, Liveness::kDirect);
}

TEST(Table, DirectUpgradesRelayed) {
  MembershipTable table;
  table.apply(row(1), Liveness::kRelayed, 9, 0);
  EXPECT_EQ(table.find(1)->liveness, Liveness::kRelayed);
  table.apply(row(1), Liveness::kDirect, kInvalidNode, 1);
  EXPECT_EQ(table.find(1)->liveness, Liveness::kDirect);
}

// A goodbye from a node's previous life is stale: the current life's row
// stays direct, with no relay.
TEST(Table, DepartingFromAnOlderLifeKeepsTheNewerRow) {
  MembershipTable table;
  table.apply(row(7, 2), Liveness::kDirect, kInvalidNode, 0);
  table.apply_departing(row(7, 1), 1);
  const MembershipEntry* held = table.find(7);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->data().incarnation, 2u);
  EXPECT_EQ(held->liveness, Liveness::kDirect);
  EXPECT_EQ(held->last_heard, 0);

  // A goodbye from the current life still demotes it.
  table.apply_departing(row(7, 2), 2);
  EXPECT_EQ(table.find(7)->liveness, Liveness::kRelayed);
  EXPECT_EQ(table.find(7)->relayed_by, kInvalidNode);
}

TEST(Table, RemoveHonorsIncarnation) {
  MembershipTable table;
  table.apply(row(1, 3), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_FALSE(table.remove(1, 2, 10));  // stale leave
  EXPECT_TRUE(table.contains(1));
  EXPECT_TRUE(table.remove(1, 3, 10));
  EXPECT_FALSE(table.contains(1));
}

TEST(Table, TombstoneBlocksRelayedRejoin) {
  MembershipTable table;
  table.apply(row(1, 3), Liveness::kDirect, kInvalidNode, 0);
  table.remove(1, 3, 10);
  EXPECT_EQ(table.apply(row(1, 3), Liveness::kRelayed, 9, 11),
            ApplyResult::kStale);
  // Higher incarnation passes.
  EXPECT_EQ(table.apply(row(1, 4), Liveness::kRelayed, 9, 12),
            ApplyResult::kAdded);
}

TEST(Table, DirectObservationOverridesTombstone) {
  MembershipTable table;
  table.apply(row(1, 3), Liveness::kDirect, kInvalidNode, 0);
  table.remove(1, 3, 10);
  EXPECT_EQ(table.apply(row(1, 3), Liveness::kDirect, kInvalidNode, 11),
            ApplyResult::kAdded);
}

TEST(Table, TombstoneExpires) {
  MembershipTable table(/*tombstone_ttl=*/100);
  table.apply(row(1, 3), Liveness::kDirect, kInvalidNode, 0);
  table.remove(1, 3, 10);
  EXPECT_EQ(table.apply(row(1, 3), Liveness::kRelayed, 9, 50),
            ApplyResult::kStale);
  EXPECT_EQ(table.apply(row(1, 3), Liveness::kRelayed, 9, 111),
            ApplyResult::kAdded);
}

TEST(Table, ExpirePolicy) {
  MembershipTable table;
  table.apply(row(1), Liveness::kDirect, kInvalidNode, 0);
  table.apply(row(2), Liveness::kDirect, kInvalidNode, 50);
  auto expired = table.expire(101, [](const MembershipEntry& e) {
    return e.data().node == 1 ? sim::Duration{100} : sim::Duration{-1};
  });
  EXPECT_EQ(expired, (std::vector<NodeId>{1}));
  EXPECT_FALSE(table.contains(1));
  EXPECT_TRUE(table.contains(2));
}

TEST(Table, LookupByServiceAndPartition) {
  MembershipTable table;
  EntryData a;
  a.node = 1;
  a.incarnation = 1;
  a.services.push_back({"index", {0, 1}, {}});
  EntryData b;
  b.node = 2;
  b.incarnation = 1;
  b.services.push_back({"index", {2}, {}});
  EntryData c;
  c.node = 3;
  c.incarnation = 1;
  c.services.push_back({"doc", {0}, {}});
  for (const auto& e : {a, b, c}) {
    table.apply(make_row(e), Liveness::kDirect, kInvalidNode, 0);
  }

  EXPECT_EQ(table.lookup("index", "*").size(), 2u);
  EXPECT_EQ(table.lookup("index", "2").size(), 1u);
  EXPECT_EQ(table.lookup("index", "0-1").size(), 1u);
  EXPECT_EQ(table.lookup(".*", "*").size(), 0u);  // names match exactly
  EXPECT_EQ(table.lookup_regex(".*", "*").size(), 3u);
  EXPECT_EQ(table.lookup_regex("index", "2").size(), 1u);
  EXPECT_EQ(table.lookup("doc", "1-5").size(), 0u);
  EXPECT_EQ(table.lookup_regex("(index|doc)", "0").size(), 2u);
}

TEST(Table, LookupMalformedRegexMatchesNothing) {
  MembershipTable table;
  table.apply(row(1), Liveness::kDirect, kInvalidNode, 0);
  EXPECT_TRUE(table.lookup_regex("(unclosed", "*").empty());
}

TEST(Table, NodeIdsSorted) {
  MembershipTable table;
  for (NodeId n : {5u, 1u, 3u}) {
    table.apply(row(n), Liveness::kDirect, kInvalidNode, 0);
  }
  EXPECT_EQ(table.node_ids(), (std::vector<NodeId>{1, 3, 5}));
}

// --- differential property test ---------------------------------------------
//
// MembershipTable against a plain std::map model of the same rules, under
// seeded random sequences of every mutation. The table finds rows through an
// interpolated guess, a short walk and a lower_bound fallback over one sorted
// vector; the model has none of that, so any slip in those paths shows up as
// a divergence.

struct ReferenceTable {
  struct Tombstone {
    Incarnation incarnation = 0;
    sim::Time expires = 0;
  };
  sim::Duration tombstone_ttl;
  std::map<NodeId, MembershipEntry> rows;
  std::map<NodeId, Tombstone> tombstones;

  ApplyResult apply(const RowRef& row, Liveness liveness, NodeId relayed_by,
                    sim::Time now) {
    const NodeId node = row->node();
    if (liveness == Liveness::kDirect) {
      tombstones.erase(node);
    } else if (auto t = tombstones.find(node);
               t != tombstones.end() && now < t->second.expires &&
               row->incarnation() <= t->second.incarnation) {
      return ApplyResult::kStale;
    }
    auto it = rows.find(node);
    if (it == rows.end()) {
      rows[node] = MembershipEntry{row, liveness, relayed_by, now};
      return ApplyResult::kAdded;
    }
    MembershipEntry& held = it->second;
    if (row->incarnation() < held.row->incarnation()) {
      return ApplyResult::kStale;
    }
    const bool same = same_row(*held.row, *row);
    if (liveness == Liveness::kRelayed && held.liveness == Liveness::kDirect &&
        row->incarnation() == held.row->incarnation()) {
      held.last_heard = now;
      if (same) return ApplyResult::kRefreshed;
      held.row = row;
      return ApplyResult::kUpdated;
    }
    if (!same) held.row = row;
    held.liveness = liveness;
    held.relayed_by = relayed_by;
    held.last_heard = now;
    return same ? ApplyResult::kRefreshed : ApplyResult::kUpdated;
  }

  NodeId sticky_relay(NodeId node, NodeId proposed,
                      const std::set<NodeId>& heard) const {
    auto it = rows.find(node);
    if (it != rows.end() && it->second.liveness == Liveness::kRelayed &&
        it->second.relayed_by != kInvalidNode &&
        heard.contains(it->second.relayed_by)) {
      return it->second.relayed_by;
    }
    return proposed;
  }

  void demote(NodeId node, NodeId relayed_by) {
    auto it = rows.find(node);
    if (it != rows.end() && it->second.liveness == Liveness::kDirect) {
      it->second.liveness = Liveness::kRelayed;
      it->second.relayed_by = relayed_by;
    }
  }

  bool remove(NodeId node, Incarnation incarnation, sim::Time now) {
    auto it = rows.find(node);
    if (it != rows.end() && it->second.row->incarnation() > incarnation) {
      return false;
    }
    Tombstone& tomb = tombstones[node];
    tomb.incarnation = std::max(tomb.incarnation, incarnation);
    tomb.expires = now + tombstone_ttl;
    std::erase_if(tombstones,
                  [&](const auto& t) { return now >= t.second.expires; });
    if (it == rows.end()) return false;
    rows.erase(it);
    return true;
  }

  void reconfirm_relay(NodeId node, NodeId relayed_by, sim::Time now) {
    auto it = rows.find(node);
    if (node == relayed_by || it == rows.end() ||
        it->second.liveness != Liveness::kRelayed) {
      return;
    }
    it->second.relayed_by = relayed_by;
    it->second.last_heard = now;
  }

  std::vector<NodeId> expire(sim::Time now, sim::Duration relayed_timeout) {
    std::vector<NodeId> expired;
    for (auto it = rows.begin(); it != rows.end();) {
      if (it->second.liveness == Liveness::kRelayed &&
          now - it->second.last_heard > relayed_timeout) {
        expired.push_back(it->first);
        it = rows.erase(it);
      } else {
        ++it;
      }
    }
    return expired;
  }
};

// Dense device-like ids (a switch id, then 20 hosts, per rack), sparse
// random 32-bit ids with both extremes, and a single id.
std::vector<NodeId> racked_ids(int racks) {
  std::vector<NodeId> ids;
  for (int r = 0; r < racks; ++r) {
    for (int h = 1; h <= 20; ++h) {
      ids.push_back(static_cast<NodeId>(r * 21 + h));
    }
  }
  return ids;
}

std::vector<NodeId> sparse_ids(uint64_t seed) {
  util::Rng rng(seed);
  std::set<NodeId> ids{0, kInvalidNode - 1};
  while (ids.size() < 48) {
    ids.insert(static_cast<NodeId>(rng.uniform_u64(kInvalidNode)));
  }
  return {ids.begin(), ids.end()};
}

void expect_same_row(const MembershipEntry* got, const MembershipEntry* want,
                     NodeId node) {
  ASSERT_EQ(got == nullptr, want == nullptr) << "node " << node;
  if (got == nullptr) return;
  EXPECT_EQ(got->row, want->row) << "node " << node;
  EXPECT_EQ(got->liveness, want->liveness) << "node " << node;
  EXPECT_EQ(got->relayed_by, want->relayed_by) << "node " << node;
  EXPECT_EQ(got->last_heard, want->last_heard) << "node " << node;
}

// `read_every` spaces the full reads (find, entries), so that several
// mutations land between two of them; contains, size and every mutation's
// result are compared after each step.
void run_differential(const std::vector<NodeId>& ids, uint64_t seed,
                      int steps, int read_every) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << ids.size()
                                  << " ids, read every " << read_every);
  constexpr sim::Duration kTtl = 40;
  util::Rng rng(seed);
  MembershipTable table(kTtl);
  ReferenceTable model{kTtl, {}, {}};
  // Rows kept per (node, incarnation, variant), so an unchanged record
  // re-applied is the same object, as a row its owner re-sends is.
  std::map<std::tuple<NodeId, Incarnation, int>, RowRef> rows;
  auto row_for = [&](NodeId node, Incarnation inc, int variant) {
    RowRef& slot = rows[{node, inc, variant}];
    if (!slot) {
      EntryData data = entry(node, inc);
      data.values["variant"] = std::to_string(variant);
      slot = make_row(std::move(data));
    }
    return slot;
  };
  auto pick = [&] { return ids[rng.uniform_u64(ids.size())]; };
  std::set<NodeId> heard;  // the relays the sticky rule treats as live
  for (NodeId id : ids) {
    if (rng.bernoulli(0.5)) heard.insert(id);
  }
  auto still_heard = [&](NodeId relay) { return heard.contains(relay); };

  sim::Time now = 0;
  for (int step = 0; step < steps; ++step) {
    now += static_cast<sim::Duration>(rng.uniform_u64(4));
    const NodeId node = pick();
    const Incarnation inc = 1 + rng.uniform_u64(3);
    const int variant = static_cast<int>(rng.uniform_u64(2));
    const NodeId relay = rng.bernoulli(0.2) ? kInvalidNode : pick();
    const uint64_t op = rng.uniform_u64(100);
    if (op < 30) {
      RowRef r = row_for(node, inc, variant);
      ASSERT_EQ(table.apply(r, Liveness::kDirect, kInvalidNode, now),
                model.apply(r, Liveness::kDirect, kInvalidNode, now));
    } else if (op < 50) {
      RowRef r = row_for(node, inc, variant);
      ASSERT_EQ(table.apply(r, Liveness::kRelayed, relay, now),
                model.apply(r, Liveness::kRelayed, relay, now));
    } else if (op < 65) {
      RowRef r = row_for(node, inc, variant);
      const NodeId tag = model.sticky_relay(node, relay, heard);
      ASSERT_EQ(table.apply_relayed(r, relay, now, still_heard),
                model.apply(r, Liveness::kRelayed, tag, now));
    } else if (op < 70) {
      RowRef r = row_for(node, inc, variant);
      table.apply_departing(r, now);
      if (model.apply(r, Liveness::kDirect, kInvalidNode, now) !=
          ApplyResult::kStale) {
        model.demote(node, kInvalidNode);
      }
    } else if (op < 82) {
      ASSERT_EQ(table.remove(node, inc, now), model.remove(node, inc, now));
    } else if (op < 88) {
      table.reconfirm_relay(node, relay, now);
      model.reconfirm_relay(node, relay, now);
    } else if (op < 95) {
      table.demote_to_relayed(node, relay);
      model.demote(node, relay);
    } else {
      const auto timeout =
          static_cast<sim::Duration>(8 + rng.uniform_u64(16));
      auto got = table.expire(now, [&](const MembershipEntry& e) {
        return e.liveness == Liveness::kRelayed ? timeout : sim::Duration{-1};
      });
      ASSERT_EQ(got, model.expire(now, timeout));
    }

    ASSERT_EQ(table.size(), model.rows.size()) << "step " << step;
    for (NodeId probe : {node, node - 1, node + 1, pick(), ids.front(),
                         ids.back(), NodeId{0}, kInvalidNode - 1}) {
      ASSERT_EQ(table.contains(probe), model.rows.contains(probe))
          << "step " << step << " probe " << probe;
    }
    if (step % read_every != read_every - 1) continue;
    for (NodeId probe : {node, node - 1, node + 1, pick()}) {
      auto it = model.rows.find(probe);
      expect_same_row(table.find(probe),
                      it == model.rows.end() ? nullptr : &it->second, probe);
    }
    const auto& entries = table.entries();
    ASSERT_EQ(entries.size(), model.rows.size());
    auto want = model.rows.begin();
    for (const auto& [id, got] : entries) {
      ASSERT_EQ(id, want->first) << "step " << step;
      expect_same_row(&got, &want->second, id);
      ++want;
    }
  }
}

TEST(TableDifferential, DenseRackedIds) {
  for (uint64_t seed : {1, 2, 3}) {
    for (int read_every : {1, 16}) {
      run_differential(racked_ids(12), seed, 3000, read_every);
    }
  }
}

TEST(TableDifferential, SparseRandomIds) {
  for (uint64_t seed : {4, 5, 6}) {
    for (int read_every : {1, 16}) {
      run_differential(sparse_ids(seed), seed, 3000, read_every);
    }
  }
}

TEST(TableDifferential, SingleId) {
  for (uint64_t seed : {7, 8}) {
    for (int read_every : {1, 16}) {
      run_differential({42}, seed, 500, read_every);
    }
  }
}

}  // namespace
}  // namespace tamp::membership
