#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "membership/codec.h"
#include "membership/messages.h"
#include "service/messages.h"
#include "util/strings.h"

namespace tamp::membership {
namespace {

std::optional<Message> decode(const uint8_t* data, size_t size) {
  return decode_message(data, size);
}

RowRef representative_row(NodeId node, Incarnation incarnation = 1) {
  return make_row(make_representative_entry(node, incarnation));
}

template <typename T>
T round_trip(const T& msg, size_t pad = 0) {
  auto bytes = encode_message_bytes(Message{msg}, pad);
  auto decoded = decode(bytes.data(), bytes.size());
  EXPECT_TRUE(decoded.has_value());
  auto* typed = std::get_if<T>(&*decoded);
  EXPECT_NE(typed, nullptr);
  return *typed;
}

TEST(Messages, HeartbeatRoundTrip) {
  HeartbeatMsg msg;
  msg.entry = representative_row(12, 4);
  msg.level = 2;
  msg.is_leader = true;
  msg.backup = 99;
  msg.seq = 12345;
  msg.epoch = 7;
  auto out = round_trip(msg);
  EXPECT_EQ(out.entry->data(), msg.entry->data());
  EXPECT_EQ(out.level, 2);
  EXPECT_TRUE(out.is_leader);
  EXPECT_EQ(out.backup, 99u);
  EXPECT_EQ(out.seq, 12345u);
  EXPECT_EQ(out.epoch, 7u);
}

TEST(Messages, HeartbeatPadding) {
  HeartbeatMsg msg;
  msg.entry = representative_row(1);
  EXPECT_EQ(encode_message(Message{msg}, 512)->size, 512u);
  auto bytes = encode_message_bytes(Message{msg}, 512);
  EXPECT_EQ(bytes.size(), 512u);
  auto decoded = decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());  // trailing zeros are ignored
  EXPECT_TRUE(std::holds_alternative<HeartbeatMsg>(*decoded));
}

TEST(Messages, UpdateRoundTrip) {
  UpdateMsg msg;
  msg.origin = 3;
  msg.epoch = 5;
  msg.window_base = 9;
  UpdateRecord join;
  join.seq = 10;
  join.kind = UpdateKind::kJoin;
  join.subject = 7;
  join.incarnation = 2;
  join.entry = representative_row(7, 2);
  UpdateRecord leave;
  leave.seq = 11;
  leave.kind = UpdateKind::kLeave;
  leave.subject = 8;
  leave.incarnation = 1;
  leave.epoch = 4;
  msg.records = {join, leave};

  auto out = round_trip(msg);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.origin, 3u);
  EXPECT_EQ(out.epoch, 5u);
  EXPECT_EQ(out.window_base, 9u);
  EXPECT_EQ(out.records[0].kind, UpdateKind::kJoin);
  ASSERT_NE(out.records[0].entry, nullptr);
  EXPECT_EQ(out.records[0].entry->data(), join.entry->data());
  EXPECT_EQ(out.records[1].kind, UpdateKind::kLeave);
  EXPECT_EQ(out.records[1].entry, nullptr);
  EXPECT_EQ(out.records[1].seq, 11u);
  EXPECT_EQ(out.records[1].epoch, 4u);
}

TEST(Messages, BootstrapRoundTrip) {
  BootstrapRequestMsg request;
  request.requester = 5;
  request.epoch = 3;
  request.known = {representative_row(5), representative_row(6)};
  auto req_out = round_trip(request);
  EXPECT_EQ(req_out.requester, 5u);
  EXPECT_EQ(req_out.epoch, 3u);
  EXPECT_EQ(req_out.known.size(), 2u);

  BootstrapResponseMsg response;
  response.responder = 1;
  response.responder_incarnation = 4;
  response.epoch = 9;
  for (NodeId n = 0; n < 20; ++n) {
    response.entries.push_back(representative_row(n));
  }
  auto resp_out = round_trip(response);
  EXPECT_EQ(resp_out.responder_incarnation, 4u);
  EXPECT_EQ(resp_out.entries.size(), 20u);
  EXPECT_EQ(resp_out.entries[19]->data(), response.entries[19]->data());
  EXPECT_EQ(resp_out.epoch, 9u);
}

TEST(Messages, SyncRoundTrip) {
  SyncRequestMsg request{42, 2, 1000, 6};
  auto req_out = round_trip(request);
  EXPECT_EQ(req_out.requester, 42u);
  EXPECT_EQ(req_out.level, 2);
  EXPECT_EQ(req_out.last_seq_seen, 1000u);
  EXPECT_EQ(req_out.epoch, 6u);

  SyncResponseMsg response;
  response.responder = 1;
  response.level = 2;
  response.stream_seq = 1010;
  response.epoch = 8;
  response.entries = {representative_row(3)};
  auto resp_out = round_trip(response);
  EXPECT_EQ(resp_out.stream_seq, 1010u);
  EXPECT_EQ(resp_out.epoch, 8u);
  ASSERT_EQ(resp_out.entries.size(), 1u);
}

TEST(Messages, ElectionRoundTrips) {
  auto election = round_trip(ElectionMsg{9, 1});
  EXPECT_EQ(election.candidate, 9u);
  EXPECT_EQ(election.level, 1);

  auto answer = round_trip(ElectionAnswerMsg{4, 2});
  EXPECT_EQ(answer.responder, 4u);

  CoordinatorMsg announce{2, 0, 17};
  announce.epoch = 12;
  announce.prev = 6;  // succession record: node 6's reign <= 11 is fenced
  announce.leader_incarnation = 3;
  announce.prev_incarnation = 2;  // ...but only node 6's second life
  auto coordinator = round_trip(announce);
  EXPECT_EQ(coordinator.leader, 2u);
  EXPECT_EQ(coordinator.backup, 17u);
  EXPECT_EQ(coordinator.epoch, 12u);
  EXPECT_EQ(coordinator.prev, 6u);
  EXPECT_EQ(coordinator.leader_incarnation, 3u);
  EXPECT_EQ(coordinator.prev_incarnation, 2u);

  // Default-constructed succession fields survive the trip too.
  auto bare = round_trip(CoordinatorMsg{2, 0, 17});
  EXPECT_EQ(bare.epoch, 0u);
  EXPECT_EQ(bare.prev, kInvalidNode);
  EXPECT_EQ(bare.leader_incarnation, 0u);
  EXPECT_EQ(bare.prev_incarnation, 0u);
}

TEST(Messages, BusyRoundTrip) {
  BusyMsg msg;
  msg.responder = 21;
  msg.level = 1;
  msg.kind = BusyKind::kSync;
  msg.retry_after = 1500000000;  // 1.5 s in ns
  auto out = round_trip(msg);
  EXPECT_EQ(out.responder, 21u);
  EXPECT_EQ(out.level, 1);
  EXPECT_EQ(out.kind, BusyKind::kSync);
  EXPECT_EQ(out.retry_after, 1500000000);

  // An out-of-range deferral kind is rejected, not misparsed.
  auto bytes = encode_message_bytes(Message{msg});
  auto decoded = decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  std::vector<uint8_t> bad(bytes);
  bad[2 + 4 + 1] = 99;  // version, type, responder u32, level u8 -> kind
  EXPECT_FALSE(decode(bad.data(), bad.size()).has_value());
}

TEST(Messages, VersionByteGatesDecoding) {
  HeartbeatMsg msg;
  msg.entry = representative_row(1);
  auto bytes = encode_message_bytes(Message{msg});
  ASSERT_FALSE(bytes.empty());
  // Every frame leads with the tagged version byte.
  EXPECT_EQ(bytes[0], kWireVersionByte);

  // A frame claiming any other version is rejected, not misparsed.
  for (int version = 0; version <= 0x0f; ++version) {
    if ((kWireVersionTag | version) == kWireVersionByte) continue;
    std::vector<uint8_t> other(bytes);
    other[0] = static_cast<uint8_t>(kWireVersionTag | version);
    EXPECT_FALSE(decode(other.data(), other.size()).has_value());
  }
}

TEST(Messages, EpochlessV1FramesRejectedNeverMisparsed) {
  // v1 frames began with the bare MessageType byte (1..12); the version tag
  // 0xA0 is disjoint from that range, so every old frame fails the gate
  // cleanly instead of decoding with garbage epochs.
  HeartbeatMsg msg;
  msg.entry = representative_row(1);
  auto bytes = encode_message_bytes(Message{msg});
  for (uint8_t type = 0; type <= 12; ++type) {
    std::vector<uint8_t> v1(bytes.begin() + 1, bytes.end());
    v1.insert(v1.begin(), type);  // what a v1 sender would have led with
    EXPECT_FALSE(decode(v1.data(), v1.size()).has_value());
  }
}

TEST(Messages, GossipRoundTripAndSizeScalesWithView) {
  GossipMsg small;
  small.sender = 1;
  small.records.push_back({representative_row(1), 10});
  auto small_payload = encode_message(Message{small});

  GossipMsg big = small;
  for (NodeId n = 2; n <= 50; ++n) {
    big.records.push_back({representative_row(n), 5});
  }
  auto big_payload = encode_message(Message{big});

  // Gossip messages carry the whole view: size grows ~linearly with n —
  // the reason the paper's Figure 11 shows quadratic aggregate bandwidth.
  EXPECT_GT(big_payload->size, 40 * small_payload->size);

  auto out = round_trip(big);
  EXPECT_EQ(out.records.size(), 50u);
  EXPECT_EQ(out.records[49].heartbeat_counter, 5u);
}

TEST(Messages, ProxyRoundTrip) {
  ProxyHeartbeatMsg msg;
  msg.dc = 1;
  msg.sender = 77;
  msg.seq = 5;
  msg.summary.availability["index"][0] = 3;
  msg.summary.availability["index"][1] = 2;
  msg.summary.availability["doc"][2] = 1;
  auto out = round_trip(msg);
  EXPECT_EQ(out.dc, 1);
  EXPECT_EQ(out.sender, 77u);
  EXPECT_EQ(out.seq, 5u);
  EXPECT_EQ(out.summary, msg.summary);
}

// Wire type 12 carried the retired proxy update message; proxy updates now
// travel as type-11 frames, so a well-formed type-12 body must not decode.
TEST(Messages, RetiredProxyUpdateTypeRejected) {
  ProxyHeartbeatMsg msg;
  msg.dc = 2;
  msg.sender = 9;
  msg.seq = 6;
  msg.summary.availability["cache"][0] = 4;
  std::vector<uint8_t> frame = encode_message_bytes(Message{msg});
  ASSERT_TRUE(decode(frame.data(), frame.size()).has_value());
  ASSERT_EQ(frame[1], static_cast<uint8_t>(MessageType::kProxyHeartbeat));
  frame[1] = 12;
  EXPECT_FALSE(decode(frame.data(), frame.size()).has_value());
}

TEST(Messages, ProxySummaryMuchSmallerThanFullEntries) {
  // "The summary does not include the detailed machine information" — check
  // the encoded summary for 100 nodes is far smaller than 100 entries.
  ProxyHeartbeatMsg summary_msg;
  summary_msg.dc = 0;
  for (int p = 0; p < 5; ++p) summary_msg.summary.availability["index"][p] = 20;
  auto summary_payload = encode_message(Message{summary_msg});

  BootstrapResponseMsg full;
  full.responder = 0;
  for (NodeId n = 0; n < 100; ++n) {
    full.entries.push_back(representative_row(n));
  }
  auto full_payload = encode_message(Message{full});
  EXPECT_LT(summary_payload->size * 50, full_payload->size);
}

TEST(Messages, RefreshDigestRoundTrip) {
  RefreshDigestMsg msg;
  msg.origin = 40;
  msg.origin_incarnation = 3;
  msg.level = 2;
  msg.epoch = 19;
  msg.subtree = true;
  msg.view_hash = 0xdeadbeefcafef00dULL;
  msg.buckets = {1, 0, 0xffffffffffffffffULL, 42};
  msg.subjects = {0, 7, 40, 41, 59, 4000000000u};  // sparse ids survive
  msg.row_count = static_cast<uint32_t>(msg.subjects.size());
  auto out = round_trip(msg);
  EXPECT_EQ(out.origin, 40u);
  EXPECT_EQ(out.origin_incarnation, 3u);
  EXPECT_EQ(out.level, 2);
  EXPECT_EQ(out.epoch, 19u);
  EXPECT_TRUE(out.subtree);
  EXPECT_EQ(out.row_count, 6u);
  EXPECT_EQ(out.view_hash, msg.view_hash);
  EXPECT_EQ(out.buckets, msg.buckets);
  EXPECT_EQ(out.subjects, msg.subjects);

  // Downward full-view digest: no scope list, row_count free-standing.
  RefreshDigestMsg down;
  down.origin = 2;
  down.row_count = 5000;
  down.buckets.assign(16, 9);
  auto down_out = round_trip(down);
  EXPECT_FALSE(down_out.subtree);
  EXPECT_EQ(down_out.row_count, 5000u);
  EXPECT_TRUE(down_out.subjects.empty());
}

TEST(Messages, RefreshDigestScopeListValidated) {
  RefreshDigestMsg msg;
  msg.origin = 1;
  msg.subtree = true;
  msg.buckets = {7};
  msg.subjects = {4, 9};
  msg.row_count = 2;
  // Baseline sanity: the valid form decodes.
  (void)round_trip(msg);

  // A scope list on a downward digest is malformed.
  RefreshDigestMsg down = msg;
  down.subtree = false;
  auto bytes = encode_message_bytes(Message{down});
  EXPECT_FALSE(decode(bytes.data(), bytes.size()).has_value());

  // row_count must match the scope list length on subtree digests.
  RefreshDigestMsg short_count = msg;
  short_count.row_count = 1;
  bytes = encode_message_bytes(Message{short_count});
  EXPECT_FALSE(decode(bytes.data(), bytes.size()).has_value());

  // Non-ascending ids produce a zero delta on the wire — rejected.
  RefreshDigestMsg dup = msg;
  dup.subjects = {4, 4};
  bytes = encode_message_bytes(Message{dup});
  EXPECT_FALSE(decode(bytes.data(), bytes.size()).has_value());
}

TEST(Messages, RefreshPullRoundTrip) {
  RefreshPullMsg msg;
  msg.requester = 86;
  msg.level = 1;
  msg.epoch = 4;
  msg.subtree = true;
  msg.bucket_indices = {0, 3, 15};
  msg.rows = {DigestRowSummary{12, 2, 0x1111},
              DigestRowSummary{77, 9, 0x2222}};
  auto out = round_trip(msg);
  EXPECT_EQ(out.requester, 86u);
  EXPECT_EQ(out.level, 1);
  EXPECT_EQ(out.epoch, 4u);
  EXPECT_TRUE(out.subtree);
  EXPECT_EQ(out.bucket_indices, msg.bucket_indices);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[1].subject, 77u);
  EXPECT_EQ(out.rows[1].incarnation, 9u);
  EXPECT_EQ(out.rows[1].row_hash, 0x2222u);
}

TEST(Messages, RefreshDeltaRoundTrip) {
  RefreshDeltaMsg msg;
  msg.responder = 23;
  msg.responder_incarnation = 5;
  msg.level = 1;
  msg.epoch = 11;
  msg.truncated = true;
  msg.entries = {representative_row(30, 1),
                 representative_row(31, 2)};
  msg.confirmed = {24, 25, 39};
  auto out = round_trip(msg);
  EXPECT_EQ(out.responder, 23u);
  EXPECT_EQ(out.responder_incarnation, 5u);
  EXPECT_EQ(out.epoch, 11u);
  EXPECT_TRUE(out.truncated);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[0]->data(), msg.entries[0]->data());
  EXPECT_EQ(out.entries[1]->data(), msg.entries[1]->data());
  EXPECT_EQ(out.confirmed, msg.confirmed);
}

// Receivers read the message its sender put in the payload and never parse
// bytes, so this table is what shows that a parse would have given them the
// same message: for every alternative, encode -> decode(bytes) -> encode
// yields the bytes it started from, edge values included.
struct ReencodeCase {
  std::string name;
  Message message;
  size_t pad = 0;
};

std::vector<ReencodeCase> reencode_cases() {
  HeartbeatMsg heartbeat;
  heartbeat.entry = representative_row(12, 4);
  heartbeat.level = 255;
  heartbeat.is_leader = true;
  heartbeat.leaving = true;
  heartbeat.backup = 99;
  heartbeat.seq = ~uint64_t{0};
  heartbeat.epoch = 7;
  HeartbeatMsg padded;
  padded.entry = representative_row(1);

  UpdateMsg update;
  update.origin = 3;
  update.origin_incarnation = 2;
  update.epoch = 5;
  update.window_base = 9;
  UpdateRecord join;
  join.seq = 10;
  join.subject = 7;
  join.incarnation = 2;
  join.epoch = 5;
  join.entry = representative_row(7, 2);
  UpdateRecord leave;  // a leave carries no entry
  leave.seq = 11;
  leave.kind = UpdateKind::kLeave;
  leave.subject = 8;
  leave.incarnation = 1;
  leave.epoch = 4;
  update.records = {join, leave};

  BootstrapRequestMsg request;
  request.requester = 5;
  request.level = 255;
  request.epoch = 3;
  request.known = {representative_row(5), representative_row(6)};
  BootstrapResponseMsg response;
  response.responder = 1;
  response.level = 2;
  response.epoch = 9;
  response.responder_incarnation = 4;
  for (NodeId n = 0; n < 5; ++n) {
    response.entries.push_back(representative_row(n));
  }

  SyncResponseMsg sync;
  sync.responder = 1;
  sync.responder_incarnation = 3;
  sync.level = 2;
  sync.stream_seq = 1010;
  sync.epoch = 8;
  sync.entries = {representative_row(3)};

  CoordinatorMsg coordinator{4, 255, 6, 12, 2, 3, 1};

  GossipMsg gossip;
  gossip.sender = 2;
  gossip.records = {{representative_row(2), 40}, {representative_row(9), 7}};

  ProxyHeartbeatMsg proxy;
  proxy.dc = 1;
  proxy.sender = 77;
  proxy.seq = 5;
  proxy.summary.availability["index"][0] = 3;
  proxy.summary.availability["doc"][-1] = 1;

  RefreshDigestMsg down;  // full-view digest: no subject list
  down.origin = 40;
  down.origin_incarnation = 3;
  down.level = 1;
  down.epoch = 19;
  down.row_count = 12;
  down.view_hash = 0xdeadbeefcafef00dULL;
  down.buckets = {1, 0, ~uint64_t{0}, 42};
  RefreshDigestMsg subtree = down;
  subtree.subtree = true;
  subtree.subjects = {0, 7, 40, 41, 59, 4000000000u};
  subtree.row_count = static_cast<uint32_t>(subtree.subjects.size());

  RefreshPullMsg pull;
  pull.requester = 86;
  pull.level = 1;
  pull.epoch = 4;
  pull.subtree = true;
  pull.bucket_indices = {0, 3, 15};
  pull.rows = {{12, 2, 0x1111}, {77, 9, 0x2222}};

  RefreshDeltaMsg delta;
  delta.responder = 23;
  delta.responder_incarnation = 5;
  delta.level = 1;
  delta.epoch = 11;
  delta.truncated = true;
  delta.entries = {representative_row(30, 1), representative_row(31, 2)};
  delta.confirmed = {24, 25, 39};

  return {
      {"heartbeat", heartbeat},
      {"padded heartbeat", padded, 512},
      {"update", update},
      {"empty update", UpdateMsg{}},
      {"bootstrap request", request},
      {"empty bootstrap request", BootstrapRequestMsg{}},
      {"bootstrap response", response},
      {"empty bootstrap response", BootstrapResponseMsg{}},
      {"sync request", SyncRequestMsg{42, 255, 1000, 6}},
      {"sync response", sync},
      {"empty sync response", SyncResponseMsg{}},
      {"election", ElectionMsg{9, 255}},
      {"election answer", ElectionAnswerMsg{3, 1}},
      {"coordinator", coordinator},
      {"gossip", gossip},
      {"empty gossip", GossipMsg{}},
      {"proxy heartbeat", proxy},
      {"empty proxy heartbeat", ProxyHeartbeatMsg{}},
      {"busy", BusyMsg{8, 255, BusyKind::kSync, 250'000'000}},
      {"downward digest", down},
      {"subtree digest", subtree},
      {"empty digest", RefreshDigestMsg{}},
      {"pull", pull},
      {"empty pull", RefreshPullMsg{}},
      {"delta", delta},
      {"empty delta", RefreshDeltaMsg{}},
  };
}

TEST(Messages, EveryAlternativeReencodesToItsOwnBytes) {
  static_assert(std::variant_size_v<Message> == 15,
                "give the new Message alternative a row in reencode_cases");
  std::set<size_t> covered;
  for (const ReencodeCase& c : reencode_cases()) {
    const std::vector<uint8_t> sent = encode_message_bytes(c.message, c.pad);
    const auto parsed = decode(sent.data(), sent.size());
    ASSERT_TRUE(parsed.has_value()) << c.name;
    EXPECT_EQ(parsed->index(), c.message.index()) << c.name;
    EXPECT_EQ(encode_message_bytes(*parsed, c.pad), sent) << c.name;

    // What a receiver reads is the message the sender put in the payload.
    net::Packet packet;
    packet.payload = encode_message(c.message, c.pad);
    const auto delivered = decode_message(packet);
    ASSERT_NE(delivered, nullptr) << c.name;
    EXPECT_EQ(encode_message_bytes(*delivered, c.pad), sent) << c.name;
    covered.insert(c.message.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<Message>);
}

// One message of each service type, edge values included.
std::vector<std::pair<std::string, service::ServiceMessage>> service_cases() {
  service::RequestMsg request;
  request.request_id = 77;
  request.reply_host = 4;
  request.reply_port = 700;
  request.service = "search";
  request.partition = -3;
  request.request_bytes = 64;
  request.response_bytes = 4096;
  request.relay_hops = 0;
  return {
      {"load poll", service::LoadPollMsg{1ULL << 40, 12, 9000}},
      {"load reply", service::LoadReplyMsg{5, 13, 0xfffffffe}},
      {"request", request},
      {"response",
       service::ResponseMsg{77, 4, service::ResponseStatus::kOverloaded, 16}},
      {"relay syn", service::RelaySynMsg{~uint64_t{0}, 3}},
      {"relay ack", service::RelayAckMsg{2, 8}},
  };
}

// A sent payload builds no bytes; it is charged what the reference encoding
// takes and stamped with the frame's type byte (service messages: kind 0).
TEST(Messages, PayloadIsChargedItsReferenceEncoding) {
  std::vector<ReencodeCase> cases = reencode_cases();
  for (const char* name : {"heartbeat", "padded heartbeat"}) {
    for (size_t pad : {size_t{0}, size_t{228}}) {
      const auto& c = *std::find_if(
          cases.begin(), cases.end(),
          [name](const ReencodeCase& r) { return r.name == name; });
      cases.push_back({c.name + " pad " + std::to_string(pad), c.message,
                       pad});
    }
  }
  for (const ReencodeCase& c : cases) {
    const net::Payload sent = encode_message(c.message, c.pad);
    const std::vector<uint8_t> frame = encode_message_bytes(c.message, c.pad);
    EXPECT_EQ(sent->size, frame.size()) << c.name;
    EXPECT_EQ(sent->kind, frame[1]) << c.name;
  }
  for (const auto& [name, message] : service_cases()) {
    const net::Payload sent = service::encode_service_message(message);
    EXPECT_EQ(sent->size, service::encode_service_message_bytes(message).size())
        << name;
    EXPECT_EQ(sent->kind, 0) << name;
  }
}

uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// A round trip passes whenever the encoder and the decoder agree, so it
// cannot see a field that moved on both sides. These hashes pin the bytes
// themselves: every reencode case, one message of each service type and one
// entry. A deliberate wire change updates them; on a mismatch the test
// prints the whole table as it now reads.
TEST(Messages, EveryAlternativeKeepsItsPinnedBytes) {
  const std::map<std::string, uint64_t> pinned = {
      {"bootstrap request", 0xcb5d090f0bd23fb6ULL},
      {"bootstrap response", 0xe53b4594df3f8995ULL},
      {"busy", 0x814e520574792809ULL},
      {"coordinator", 0x5940a7466fdf1e7cULL},
      {"delta", 0xe9a7286ee3b61bd1ULL},
      {"downward digest", 0x637c66d23d696b69ULL},
      {"election", 0x5f684c9819d3887bULL},
      {"election answer", 0x13d026eaaa091554ULL},
      {"empty bootstrap request", 0xc7c1c53d2877e545ULL},
      {"empty bootstrap response", 0x913bdcd37c4ccf2aULL},
      {"empty delta", 0xce0a43787f302586ULL},
      {"empty digest", 0x0f6ea9099fc0c790ULL},
      {"empty gossip", 0xcb621fad57b6624cULL},
      {"empty proxy heartbeat", 0xd65f39d3573126cdULL},
      {"empty pull", 0xf7989e7dcb00f879ULL},
      {"empty sync response", 0x9ae58e086f5b75a8ULL},
      {"empty update", 0x66afeadd0c74dfa4ULL},
      {"entry", 0x3108aab9b8a289cdULL},
      {"gossip", 0xd8ff6912db61d17bULL},
      {"heartbeat", 0x73dd3945368346a4ULL},
      {"padded heartbeat", 0x34c1c5df8dbc024fULL},
      {"proxy heartbeat", 0xe877786e12d3a860ULL},
      {"pull", 0x7c28248747cecb06ULL},
      {"service load poll", 0x12e0b9e0e122af6eULL},
      {"service load reply", 0x7a57db9d064d7fb8ULL},
      {"service relay ack", 0x476509a8cdf4cc83ULL},
      {"service relay syn", 0x3f4c49429667530bULL},
      {"service request", 0x019e8f6b6653fba9ULL},
      {"service response", 0x0c0cead68add5c3bULL},
      {"subtree digest", 0x43c02a26aadc94d0ULL},
      {"sync request", 0x4bfeabcc7a3347fdULL},
      {"sync response", 0x94dc9961e3bd31aeULL},
      {"update", 0xfcccb2432b4dcbfcULL},
  };

  std::map<std::string, uint64_t> actual;
  for (const ReencodeCase& c : reencode_cases()) {
    actual[c.name] = fnv1a(encode_message_bytes(c.message, c.pad));
  }
  for (const auto& [name, message] : service_cases()) {
    actual[std::string("service ") + name] =
        fnv1a(service::encode_service_message_bytes(message));
  }
  WireWriter entry;
  encode_entry(entry, make_representative_entry(42, 3));
  actual["entry"] = fnv1a(entry.view());

  std::string table;
  for (const auto& [name, hash] : actual) {
    table += util::strformat("      {\"%s\", 0x%016llxULL},\n", name.c_str(),
                             static_cast<unsigned long long>(hash));
  }
  EXPECT_EQ(actual, pinned) << "the bytes now hash to:\n" << table;
}

TEST(Messages, DigestRowHashIgnoresLocalSoftState) {
  // The hash covers replicated content only — two holders with different
  // soft state (liveness, provenance, timestamps live outside EntryData)
  // must agree, or steady-state digests would never match.
  auto hash = [](const EntryData& entry) { return make_row(entry)->hash(); };
  EntryData a = make_representative_entry(9, 3);
  EntryData b = a;
  EXPECT_EQ(hash(a), hash(b));
  b.incarnation++;
  EXPECT_NE(hash(a), hash(b));
  b = a;
  b.values["load"] = "0.7";
  EXPECT_NE(hash(a), hash(b));
  EXPECT_NE(hash(a), 0u);  // zero is reserved (XOR-invisible)
}

TEST(Messages, MalformedInputsRejected) {
  EXPECT_FALSE(decode(nullptr, 0).has_value());
  uint8_t unknown_version[] = {0xee, 1, 2, 3};
  EXPECT_FALSE(
      decode(unknown_version, sizeof(unknown_version)).has_value());
  uint8_t unknown_type[] = {kWireVersionByte, 0xee, 1, 2, 3};
  EXPECT_FALSE(decode(unknown_type, sizeof(unknown_type)).has_value());
  uint8_t bad_kind[] = {kWireVersionByte,
                        2 /*kUpdate*/,
                        1, 0, 0, 0 /*origin*/,
                        0, 0, 0, 0, 0, 0, 0, 0 /*origin incarnation*/,
                        0 /*epoch varint*/,
                        0 /*window_base varint*/,
                        1 /*count varint*/,
                        0, 0, 0, 0, 0, 0, 0, 0 /*seq*/,
                        99 /*bad kind*/};
  EXPECT_FALSE(decode(bad_kind, sizeof(bad_kind)).has_value());
}

TEST(Messages, TruncationNeverCrashes) {
  HeartbeatMsg msg;
  msg.entry = representative_row(1);
  auto bytes = encode_message_bytes(Message{msg});
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    (void)decode(bytes.data(), cut);  // must not crash
  }
  SUCCEED();
}

}  // namespace
}  // namespace tamp::membership
