#include <gtest/gtest.h>

#include "membership/codec.h"
#include "membership/row.h"
#include "membership/table.h"

namespace tamp::membership {
namespace {

EntryData entry(NodeId node, Incarnation inc = 1) {
  EntryData e = make_representative_entry(node, inc);
  return e;
}

// Unpooled, so two calls give two distinct rows of equal content.
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

}  // namespace
}  // namespace tamp::membership
