// The per-simulation row pool: one immutable row per distinct content,
// canonical bytes and digest hash computed once, rows nobody holds swept.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "membership/codec.h"
#include "membership/messages.h"
#include "membership/row.h"
#include "membership/table.h"
#include "net/topology.h"
#include "net/transport.h"
#include "protocols/alltoall.h"
#include "sim/simulation.h"

namespace tamp::membership {
namespace {

// The digest row hash as first specified: FNV-1a (64-bit) over the subject
// id, the incarnation, then the encoded entry; zero is remapped because the
// XOR bucket combine could not see a zero row.
uint64_t reference_row_hash(const EntryData& entry) {
  WireWriter w;
  w.u32(entry.node);
  w.u64(entry.incarnation);
  encode_entry(w, entry);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t byte : w.view()) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash == 0 ? 0x9e3779b97f4a7c15ULL : hash;
}

std::vector<uint8_t> canonical_bytes(const EntryData& entry) {
  WireWriter w;
  encode_entry(w, entry);
  return w.take();
}

std::vector<EntryData> edge_entries() {
  std::vector<EntryData> entries;
  entries.push_back(EntryData{});  // invalid node, incarnation 0, defaults
  EntryData zero;
  zero.node = 0;
  zero.machine = MachineInfo{0, 0, ""};
  entries.push_back(zero);
  EntryData max;
  max.node = 0xfffffffe;
  max.incarnation = ~uint64_t{0};
  max.machine = MachineInfo{0xffff, 0xffffffff, std::string(300, 'o')};
  max.services.push_back({"", {}, {}});
  max.services.push_back({"svc", {-1, 0, 1 << 30}, {{"", ""}, {"k", "v"}}});
  max.values[""] = "";
  max.values[std::string(200, 'k')] = std::string(1000, 'v');
  entries.push_back(max);
  return entries;
}

TEST(RowPool, EqualContentInternsToOneRow) {
  RowPool pool;
  RowRef a = pool.intern(make_representative_entry(7, 3));
  RowRef b = pool.intern(make_representative_entry(7, 3));
  EXPECT_EQ(a, b);

  RowRef next_life = pool.intern(make_representative_entry(7, 4));
  EXPECT_NE(next_life, a);
  EXPECT_EQ(next_life->incarnation(), 4u);

  EntryData edited = make_representative_entry(7, 3);
  edited.values["load"] = "0.7";
  RowRef changed = pool.intern(edited);
  EXPECT_NE(changed, a);
  EXPECT_FALSE(same_row(*changed, *a));
  EXPECT_EQ(changed->data(), edited);
}

TEST(RowPool, RowCachesCanonicalBytesAndDigestHash) {
  std::vector<EntryData> entries = edge_entries();
  for (NodeId n : {0u, 1u, 19u, 20u, 499u, 9999u}) {
    entries.push_back(make_representative_entry(n, n + 1));
  }
  RowPool pool;
  for (const EntryData& entry : entries) {
    RowRef row = pool.intern(entry);
    EXPECT_EQ(row->data(), entry);
    EXPECT_EQ(row->bytes(), canonical_bytes(entry));
    EXPECT_EQ(row->hash(), reference_row_hash(entry)) << entry.node;
    EXPECT_EQ(make_row(entry)->hash(), row->hash());
  }
}

TEST(RowPool, DecodeOfAHeldRowReturnsIt) {
  RowPool pool;
  RowRef held = pool.intern(make_representative_entry(5, 2));
  WireReader r(held->bytes());
  EXPECT_EQ(pool.decode(r), held);
  EXPECT_EQ(r.remaining(), 0u);

  // A row nobody in this pool holds yet decodes to an equal row, which the
  // next decode of the same bytes then finds.
  RowRef stranger = make_row(make_representative_entry(6, 1));
  WireReader first(stranger->bytes());
  RowRef decoded = pool.decode(first);
  ASSERT_NE(decoded, nullptr);
  EXPECT_NE(decoded, stranger);
  EXPECT_TRUE(same_row(*decoded, *stranger));
  WireReader second(stranger->bytes());
  EXPECT_EQ(pool.decode(second), decoded);
}

// Encodes `entry`'s fields by hand so a test can break canonical form.
struct RawEntry {
  WireWriter w;
  explicit RawEntry(const EntryData& entry) {
    w.u32(entry.node);
    w.u64(entry.incarnation);
    w.u16(entry.machine.cpus);
    w.u32(entry.machine.memory_mb);
  }
};

TEST(RowPool, DuplicateMapKeyInternsToCanonicalRow) {
  EntryData entry;
  entry.node = 11;
  entry.incarnation = 2;
  entry.machine.os = "linux";
  entry.values["k"] = "first";  // the decoder keeps the first duplicate

  RawEntry raw(entry);
  raw.w.str("linux");
  raw.w.varint(0);  // services
  raw.w.varint(2);  // values, with a duplicated key
  raw.w.str("k");
  raw.w.str("first");
  raw.w.str("k");
  raw.w.str("second");
  const std::vector<uint8_t> bytes = raw.w.take();
  ASSERT_NE(bytes, canonical_bytes(entry));

  for (bool held_first : {false, true}) {
    RowPool pool;
    RowRef held = held_first ? pool.intern(entry) : nullptr;
    WireReader r(bytes);
    RowRef row = pool.decode(r);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(row->data(), entry);
    EXPECT_EQ(row->bytes(), canonical_bytes(entry));
    EXPECT_EQ(row->hash(), reference_row_hash(entry));
    EXPECT_EQ(row, pool.intern(entry));
    if (held) {
      EXPECT_EQ(row, held);
    }
  }
}

TEST(RowPool, OverlongVarintInternsToCanonicalRow) {
  EntryData entry;
  entry.node = 12;
  entry.incarnation = 1;
  entry.machine.os = "linux";

  RawEntry raw(entry);
  raw.w.u8(0x85);  // length 5 as a two-byte varint: 0x85 0x00
  raw.w.u8(0x00);
  raw.w.bytes("linux", 5);
  raw.w.u8(0x80);  // service count 0 as a two-byte varint
  raw.w.u8(0x00);
  raw.w.varint(0);  // values
  const std::vector<uint8_t> bytes = raw.w.take();
  ASSERT_NE(bytes, canonical_bytes(entry));

  RowPool pool;
  RowRef held = pool.intern(entry);
  WireReader r(bytes);
  RowRef row = pool.decode(r);
  EXPECT_EQ(row, held);
  EXPECT_EQ(row->bytes(), canonical_bytes(entry));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(RowPool, MalformedRowFailsTheReader) {
  const RowRef row = make_row(make_representative_entry(3));
  for (bool held : {false, true}) {
    RowPool pool;
    RowRef keep = held ? pool.intern(row->data()) : nullptr;
    for (size_t cut = 0; cut < row->bytes().size(); ++cut) {
      WireReader r(row->bytes().data(), cut);
      EXPECT_EQ(pool.decode(r), nullptr) << "held=" << held << " cut=" << cut;
      EXPECT_FALSE(r.ok());
    }
  }
}

TEST(RowPool, RowsNobodyHoldsAreSwept) {
  RowPool pool;
  RowRef keep = pool.intern(make_representative_entry(1));
  for (int i = 0; i < 10000; ++i) {
    // Value edits within one life, and a new life every tenth row.
    EntryData entry = make_representative_entry(2, 1 + i / 10);
    entry.values["tick"] = std::to_string(i);
    (void)pool.intern(std::move(entry));
    ASSERT_LE(pool.size(), 130u) << "after " << i;
  }
  // The held row survived every sweep and is still the pooled one.
  EXPECT_EQ(pool.intern(make_representative_entry(1)), keep);
}

TEST(RowPool, BoundedAcrossDaemonValueChurn) {
  sim::Simulation sim(1);
  net::Topology topo;
  const net::DeviceId sw = topo.add_l2_switch("sw");
  const net::HostId host = topo.add_host("h");
  topo.connect(host, sw);
  net::Network net(sim, topo);
  protocols::AllToAllDaemon daemon(sim, net, host,
                                   make_representative_entry(host));
  daemon.start();
  for (int i = 0; i < 10000; ++i) {
    daemon.update_value("load", std::to_string(i));
    ASSERT_LE(row_pool(net).size(), 130u) << "after " << i;
  }
  const MembershipEntry* own = daemon.table().find(host);
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->data().values.at("load"), "9999");
  EXPECT_EQ(own->row, row_pool(net).intern(daemon.own_entry()));
}

TEST(RowPool, EqualRowsOfTwoPoolsCompareEqual) {
  RowPool first;
  RowPool second;
  RowRef a = first.intern(make_representative_entry(4, 2));
  RowRef b = second.intern(make_representative_entry(4, 2));
  EXPECT_NE(a, b);
  EXPECT_TRUE(same_row(*a, *b));
  EXPECT_FALSE(same_row(*a, *second.intern(make_representative_entry(4, 3))));

  MembershipTable table;
  EXPECT_EQ(table.apply(a, Liveness::kDirect, kInvalidNode, 1),
            ApplyResult::kAdded);
  EXPECT_EQ(table.apply(b, Liveness::kDirect, kInvalidNode, 2),
            ApplyResult::kRefreshed);
}

TEST(RowPool, OnePoolPerNetwork) {
  sim::Simulation sim(1);
  net::Topology topo;
  topo.add_host("h");
  net::Network one(sim, topo);
  net::Network two(sim, topo);
  EXPECT_EQ(&row_pool(one), &row_pool(one));
  EXPECT_NE(&row_pool(one), &row_pool(two));
}

}  // namespace
}  // namespace tamp::membership
