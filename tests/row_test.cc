// Directory rows: immutable, built once with their canonical bytes and
// digest hash, shared by reference, and compared by content.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "membership/codec.h"
#include "membership/table.h"
#include "membership/wire.h"
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

// One row read as the reference decoder reads it inside a message.
RowRef decode_row(WireReader& r) {
  WireIn in(r);
  RowRef row;
  in.row(row);
  return row;
}

TEST(Row, RowCachesCanonicalBytesAndDigestHash) {
  std::vector<EntryData> entries = edge_entries();
  for (NodeId n : {0u, 1u, 19u, 20u, 499u, 9999u}) {
    entries.push_back(make_representative_entry(n, n + 1));
  }
  for (const EntryData& entry : entries) {
    RowRef row = make_row(entry);
    EXPECT_EQ(row->data(), entry);
    EXPECT_EQ(row->bytes(), canonical_bytes(entry));
    EXPECT_EQ(row->hash(), reference_row_hash(entry)) << entry.node;
    WireReader r(row->bytes());
    RowRef decoded = decode_row(r);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->hash(), row->hash());
    EXPECT_TRUE(same_row(*decoded, *row));
  }
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

TEST(Row, DuplicateMapKeyInternsToCanonicalRow) {
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

  WireReader r(bytes);
  RowRef row = decode_row(r);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(row->data(), entry);
  EXPECT_EQ(row->bytes(), canonical_bytes(entry));
  EXPECT_EQ(row->hash(), reference_row_hash(entry));
  EXPECT_TRUE(same_row(*row, *make_row(entry)));
}

TEST(Row, OverlongVarintInternsToCanonicalRow) {
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

  WireReader r(bytes);
  RowRef row = decode_row(r);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(row->data(), entry);
  EXPECT_EQ(row->bytes(), canonical_bytes(entry));
  EXPECT_EQ(row->hash(), reference_row_hash(entry));
  EXPECT_TRUE(same_row(*row, *make_row(entry)));
}

TEST(Row, MalformedRowFailsTheReader) {
  const RowRef row = make_row(make_representative_entry(3));
  for (size_t cut = 0; cut < row->bytes().size(); ++cut) {
    WireReader r(row->bytes().data(), cut);
    EXPECT_EQ(decode_row(r), nullptr) << "cut=" << cut;
    EXPECT_FALSE(r.ok());
  }
}

// Each edit rebuilds the owner's row and drops the one before, so memory
// stays bounded with no sweep.
TEST(Row, BoundedAcrossDaemonValueChurn) {
  sim::Simulation sim(1);
  net::Topology topo;
  const net::DeviceId sw = topo.add_l2_switch("sw");
  const net::HostId host = topo.add_host("h");
  topo.connect(host, sw);
  net::Network net(sim, topo);
  protocols::AllToAllDaemon daemon(sim, net, host,
                                   make_representative_entry(host));
  daemon.start();
  RowRef first = daemon.table().find(host)->row;
  const uint32_t daemon_refs = first.use_count() - 1;
  ASSERT_GE(daemon_refs, 1u);
  const size_t live = Row::live_count();
  for (int i = 0; i < 10000; ++i) {
    daemon.update_value("load", std::to_string(i));
  }
  // The daemon let go of every reference to the first row, and of each
  // row built in between: only the current one and this test's are left.
  EXPECT_EQ(first.use_count(), 1u);
  EXPECT_EQ(daemon.table().find(host)->row.use_count(), daemon_refs);
  EXPECT_EQ(Row::live_count(), live + 1);
  first = nullptr;  // the last reference: the first row is destroyed
  EXPECT_EQ(Row::live_count(), live);
  const MembershipEntry* own = daemon.table().find(host);
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->data().values.at("load"), "9999");
  EXPECT_EQ(&own->data(), &daemon.own_entry());
}

// RowRef is a counted pointer held inside the Row (types.h asserts its 8
// bytes), and the last reference to go destroys the row.
TEST(RowRef, CopyMoveAndLastReference) {
  const size_t live = Row::live_count();

  RowRef null;
  EXPECT_FALSE(null);
  EXPECT_EQ(null, nullptr);
  EXPECT_EQ(null.get(), nullptr);
  EXPECT_EQ(null.use_count(), 0u);

  RowRef a = make_row(make_representative_entry(5));
  ASSERT_TRUE(a);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(Row::live_count(), live + 1);
  EXPECT_EQ(a->node(), 5u);
  EXPECT_EQ(&*a, a.get());

  RowRef copy = a;
  EXPECT_EQ(copy, a);
  EXPECT_EQ(a.use_count(), 2u);

  RowRef moved = std::move(copy);
  EXPECT_EQ(copy, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved, a);
  EXPECT_EQ(a.use_count(), 2u);

  RowRef& alias = moved;
  moved = alias;  // self-assignment keeps the row and its count
  EXPECT_EQ(moved, a);
  EXPECT_EQ(a.use_count(), 2u);
  moved = std::move(alias);
  EXPECT_EQ(moved, a);
  EXPECT_EQ(a.use_count(), 2u);

  RowRef b = make_row(make_representative_entry(6));
  EXPECT_NE(a, b);
  EXPECT_EQ(Row::live_count(), live + 2);
  moved = b;  // drops one reference to a, takes one to b
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 2u);

  a = b;  // a's last reference: its row is destroyed
  EXPECT_EQ(Row::live_count(), live + 1);
  EXPECT_EQ(b.use_count(), 3u);
  a = nullptr;
  moved = RowRef();
  EXPECT_EQ(b.use_count(), 1u);
  b = std::move(a);  // a is null: b's row goes too
  EXPECT_FALSE(b);
  EXPECT_EQ(Row::live_count(), live);
}

// Rows built apart from equal content are separate objects that compare
// equal; a new life or an edited value compares unequal.
TEST(Row, DistinctEqualRowsCompareEqual) {
  RowRef a = make_row(make_representative_entry(4, 2));
  RowRef b = make_row(make_representative_entry(4, 2));
  EXPECT_NE(a, b);
  EXPECT_TRUE(same_row(*a, *b));

  RowRef next_life = make_row(make_representative_entry(4, 3));
  EXPECT_EQ(next_life->incarnation(), 3u);
  EXPECT_FALSE(same_row(*a, *next_life));

  EntryData edited = make_representative_entry(4, 2);
  edited.values["load"] = "0.7";
  RowRef changed = make_row(edited);
  EXPECT_FALSE(same_row(*changed, *a));
  EXPECT_EQ(changed->data(), edited);

  // The table keeps the row it holds when an equal one arrives.
  MembershipTable table;
  EXPECT_EQ(table.apply(a, Liveness::kDirect, kInvalidNode, 1),
            ApplyResult::kAdded);
  EXPECT_EQ(table.apply(b, Liveness::kDirect, kInvalidNode, 2),
            ApplyResult::kRefreshed);
  EXPECT_EQ(table.find(4)->row, a);
}

}  // namespace
}  // namespace tamp::membership
