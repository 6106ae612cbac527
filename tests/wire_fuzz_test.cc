// Decoder fuzzing: the daemons feed every received datagram through
// decode_message / decode_service_message; arbitrary bytes must never
// crash, hang, or over-read — only yield nullopt or a well-formed message.
#include <gtest/gtest.h>

#include <type_traits>
#include <variant>

#include "membership/codec.h"
#include "membership/messages.h"
#include "membership/row.h"
#include "service/messages.h"
#include "util/rng.h"

namespace tamp {
namespace {

// Decodes as a receiver holding no rows yet would: against a fresh pool.
std::optional<membership::Message> decode(const uint8_t* data, size_t size) {
  membership::RowPool pool;
  return membership::decode_message(data, size, pool);
}

membership::RowRef representative_row(membership::NodeId node,
                                      membership::Incarnation inc = 1) {
  return membership::make_row(membership::make_representative_entry(node, inc));
}

std::vector<uint8_t> random_bytes(util::Rng& rng, size_t max_size) {
  std::vector<uint8_t> bytes(rng.uniform_u64(max_size) + 1);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.next_u64());
  return bytes;
}

TEST(WireFuzz, RandomBytesNeverCrashMembershipDecoder) {
  util::Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    auto bytes = random_bytes(rng, 512);
    (void)decode(bytes.data(), bytes.size());
  }
  SUCCEED();
}

TEST(WireFuzz, RandomBytesNeverCrashServiceDecoder) {
  util::Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    auto bytes = random_bytes(rng, 512);
    (void)service::decode_service_message(bytes.data(), bytes.size());
  }
  SUCCEED();
}

TEST(WireFuzz, MutatedValidMessagesNeverCrash) {
  util::Rng rng(3);
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry = representative_row(5);
  auto payload = membership::encode_message(membership::Message{heartbeat});
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> mutated(*payload);
    int flips = 1 + static_cast<int>(rng.uniform_u64(8));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.uniform_u64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.uniform_u64(8));
    }
    (void)decode(mutated.data(), mutated.size());
  }
  SUCCEED();
}

// The version byte is a hard gate: any frame not leading with the current
// tagged version decodes to nullopt — a pre-epoch (v1) frame, whose first
// byte was the bare MessageType, can never be misparsed as v2.
TEST(WireFuzz, WrongVersionByteAlwaysRejected) {
  util::Rng rng(10);
  membership::UpdateMsg update;
  update.origin = 3;
  update.epoch = 2;
  membership::UpdateRecord record;
  record.seq = 1;
  record.kind = membership::UpdateKind::kJoin;
  record.subject = 7;
  record.entry = representative_row(7);
  update.records.push_back(std::move(record));
  auto payload = membership::encode_message(membership::Message{update});
  ASSERT_EQ((*payload)[0], membership::kWireVersionByte);

  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> mutated(*payload);
    uint8_t first = static_cast<uint8_t>(rng.next_u64());
    mutated[0] = first;
    auto decoded = decode(mutated.data(), mutated.size());
    if (first == membership::kWireVersionByte) {
      EXPECT_TRUE(decoded.has_value());
    } else {
      EXPECT_FALSE(decoded.has_value());
    }
  }
}

// Random structured entries round-trip exactly (property over the codec).
TEST(WireFuzz, RandomEntriesRoundTrip) {
  util::Rng rng(4);
  auto random_string = [&](size_t max_len) {
    std::string s(rng.uniform_u64(max_len), 'x');
    for (auto& c : s) c = static_cast<char>('a' + rng.uniform_u64(26));
    return s;
  };
  for (int i = 0; i < 2000; ++i) {
    membership::EntryData entry;
    entry.node = static_cast<membership::NodeId>(rng.uniform_u64(1 << 20));
    entry.incarnation = rng.next_u64();
    entry.machine.cpus = static_cast<uint16_t>(rng.uniform_u64(256));
    entry.machine.memory_mb = static_cast<uint32_t>(rng.next_u64());
    entry.machine.os = random_string(24);
    size_t services = rng.uniform_u64(4);
    for (size_t s = 0; s < services; ++s) {
      membership::ServiceRegistration service;
      service.name = random_string(16);
      size_t partitions = rng.uniform_u64(6);
      for (size_t p = 0; p < partitions; ++p) {
        service.partitions.push_back(
            static_cast<int>(rng.uniform_u64(1 << 16)));
      }
      size_t params = rng.uniform_u64(3);
      for (size_t p = 0; p < params; ++p) {
        service.params[random_string(8)] = random_string(12);
      }
      entry.services.push_back(std::move(service));
    }
    size_t values = rng.uniform_u64(5);
    for (size_t v = 0; v < values; ++v) {
      entry.values[random_string(10)] = random_string(32);
    }

    membership::WireWriter writer;
    membership::encode_entry(writer, entry);
    auto buffer = writer.take();
    membership::WireReader reader(buffer);
    auto decoded = membership::decode_entry(reader);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, entry);
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

// Random update messages (records of both kinds) round-trip through the
// full envelope.
TEST(WireFuzz, RandomUpdateMessagesRoundTrip) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    membership::UpdateMsg msg;
    msg.origin = static_cast<membership::NodeId>(rng.uniform_u64(10000));
    msg.origin_incarnation = rng.next_u64();
    size_t records = 1 + rng.uniform_u64(6);
    for (size_t r = 0; r < records; ++r) {
      membership::UpdateRecord record;
      record.seq = rng.next_u64();
      record.subject =
          static_cast<membership::NodeId>(rng.uniform_u64(10000));
      record.incarnation = rng.next_u64();
      if (rng.bernoulli(0.5)) {
        record.kind = membership::UpdateKind::kJoin;
        record.entry = representative_row(record.subject);
      } else {
        record.kind = membership::UpdateKind::kLeave;
      }
      msg.records.push_back(std::move(record));
    }
    auto payload = membership::encode_message(membership::Message{msg});
    auto decoded = decode(payload->data(), payload->size());
    ASSERT_TRUE(decoded.has_value());
    auto* out = std::get_if<membership::UpdateMsg>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->origin, msg.origin);
    EXPECT_EQ(out->origin_incarnation, msg.origin_incarnation);
    ASSERT_EQ(out->records.size(), msg.records.size());
    for (size_t r = 0; r < records; ++r) {
      EXPECT_EQ(out->records[r].seq, msg.records[r].seq);
      EXPECT_EQ(out->records[r].kind, msg.records[r].kind);
      ASSERT_EQ(out->records[r].entry == nullptr,
                msg.records[r].entry == nullptr);
      if (msg.records[r].entry) {
        EXPECT_EQ(out->records[r].entry->data(), msg.records[r].entry->data());
      }
    }
  }
}

namespace {

std::string random_name(util::Rng& rng, size_t max_len) {
  std::string s(rng.uniform_u64(max_len) + 1, 'x');
  for (auto& c : s) c = static_cast<char>('a' + rng.uniform_u64(26));
  return s;
}

membership::ServiceSummary random_summary(util::Rng& rng) {
  membership::ServiceSummary summary;
  size_t services = rng.uniform_u64(4);
  for (size_t s = 0; s < services; ++s) {
    auto& partitions = summary.availability[random_name(rng, 12)];
    size_t count = rng.uniform_u64(6);
    for (size_t p = 0; p < count; ++p) {
      partitions[static_cast<int>(rng.uniform_u64(64))] =
          static_cast<int>(rng.uniform_u64(100));
    }
  }
  return summary;
}

}  // namespace

// Proxy summary messages (dc id + sender + seq + service summary)
// round-trip exactly through the shared membership envelope.
TEST(WireFuzz, RandomProxyMessagesRoundTrip) {
  util::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    membership::ProxyHeartbeatMsg msg;
    msg.dc = static_cast<uint16_t>(rng.uniform_u64(1 << 16));
    msg.sender = static_cast<membership::NodeId>(rng.uniform_u64(10000));
    msg.seq = rng.next_u64();
    msg.summary = random_summary(rng);
    auto payload = membership::encode_message(membership::Message{msg});
    auto decoded = decode(payload->data(), payload->size());
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<membership::ProxyHeartbeatMsg>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->dc, msg.dc);
    EXPECT_EQ(out->sender, msg.sender);
    EXPECT_EQ(out->seq, msg.seq);
    EXPECT_EQ(out->summary, msg.summary);
  }
}

TEST(WireFuzz, MutatedProxyMessagesNeverCrash) {
  util::Rng rng(7);
  membership::ProxyHeartbeatMsg msg;
  msg.dc = 3;
  msg.sender = 17;
  msg.seq = 42;
  msg.summary = random_summary(rng);
  auto payload = membership::encode_message(membership::Message{msg});
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> mutated(*payload);
    int flips = 1 + static_cast<int>(rng.uniform_u64(8));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.uniform_u64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.uniform_u64(8));
    }
    (void)decode(mutated.data(), mutated.size());
  }
  SUCCEED();
}

// Every service-plane message variant round-trips through its envelope.
TEST(WireFuzz, RandomServiceMessagesRoundTrip) {
  util::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    service::ServiceMessage message;
    switch (rng.uniform_u64(6)) {
      case 0: {
        service::LoadPollMsg msg;
        msg.poll_id = rng.next_u64();
        msg.from = static_cast<net::HostId>(rng.uniform_u64(10000));
        msg.reply_port = static_cast<net::Port>(rng.uniform_u64(1 << 16));
        message = msg;
        break;
      }
      case 1: {
        service::LoadReplyMsg msg;
        msg.poll_id = rng.next_u64();
        msg.from = static_cast<net::HostId>(rng.uniform_u64(10000));
        msg.load = static_cast<uint32_t>(rng.next_u64());
        message = msg;
        break;
      }
      case 2: {
        service::RequestMsg msg;
        msg.request_id = rng.next_u64();
        msg.reply_host = static_cast<net::HostId>(rng.uniform_u64(10000));
        msg.reply_port = static_cast<net::Port>(rng.uniform_u64(1 << 16));
        msg.service = random_name(rng, 20);
        msg.partition = static_cast<int32_t>(rng.uniform_u64(1 << 16));
        msg.request_bytes = static_cast<uint32_t>(rng.uniform_u64(1 << 20));
        msg.response_bytes = static_cast<uint32_t>(rng.uniform_u64(1 << 20));
        msg.relay_hops = static_cast<uint8_t>(rng.uniform_u64(4));
        message = msg;
        break;
      }
      case 3: {
        service::ResponseMsg msg;
        msg.request_id = rng.next_u64();
        msg.from = static_cast<net::HostId>(rng.uniform_u64(10000));
        msg.status =
            static_cast<service::ResponseStatus>(rng.uniform_u64(4));
        msg.payload_bytes = static_cast<uint32_t>(rng.uniform_u64(1 << 20));
        message = msg;
        break;
      }
      case 4: {
        service::RelaySynMsg msg;
        msg.conn_id = rng.next_u64();
        msg.from = static_cast<net::HostId>(rng.uniform_u64(10000));
        message = msg;
        break;
      }
      default: {
        service::RelayAckMsg msg;
        msg.conn_id = rng.next_u64();
        msg.from = static_cast<net::HostId>(rng.uniform_u64(10000));
        message = msg;
        break;
      }
    }

    auto payload = service::encode_service_message(message);
    auto decoded =
        service::decode_service_message(payload->data(), payload->size());
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->index(), message.index());
    std::visit(
        [&](const auto& original) {
          using T = std::decay_t<decltype(original)>;
          const auto& round = std::get<T>(*decoded);
          if constexpr (std::is_same_v<T, service::LoadPollMsg>) {
            EXPECT_EQ(round.poll_id, original.poll_id);
            EXPECT_EQ(round.from, original.from);
            EXPECT_EQ(round.reply_port, original.reply_port);
          } else if constexpr (std::is_same_v<T, service::LoadReplyMsg>) {
            EXPECT_EQ(round.poll_id, original.poll_id);
            EXPECT_EQ(round.from, original.from);
            EXPECT_EQ(round.load, original.load);
          } else if constexpr (std::is_same_v<T, service::RequestMsg>) {
            EXPECT_EQ(round.request_id, original.request_id);
            EXPECT_EQ(round.reply_host, original.reply_host);
            EXPECT_EQ(round.reply_port, original.reply_port);
            EXPECT_EQ(round.service, original.service);
            EXPECT_EQ(round.partition, original.partition);
            EXPECT_EQ(round.request_bytes, original.request_bytes);
            EXPECT_EQ(round.response_bytes, original.response_bytes);
            EXPECT_EQ(round.relay_hops, original.relay_hops);
          } else if constexpr (std::is_same_v<T, service::ResponseMsg>) {
            EXPECT_EQ(round.request_id, original.request_id);
            EXPECT_EQ(round.from, original.from);
            EXPECT_EQ(round.status, original.status);
            EXPECT_EQ(round.payload_bytes, original.payload_bytes);
          } else if constexpr (std::is_same_v<T, service::RelaySynMsg>) {
            EXPECT_EQ(round.conn_id, original.conn_id);
            EXPECT_EQ(round.from, original.from);
          } else {
            EXPECT_EQ(round.conn_id, original.conn_id);
            EXPECT_EQ(round.from, original.from);
          }
        },
        message);
  }
}

TEST(WireFuzz, MutatedServiceMessagesNeverCrash) {
  util::Rng rng(9);
  service::RequestMsg request;
  request.request_id = 99;
  request.reply_host = 4;
  request.reply_port = 700;
  request.service = "http";
  request.partition = 2;
  request.request_bytes = 512;
  request.response_bytes = 2048;
  auto payload =
      service::encode_service_message(service::ServiceMessage{request});
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> mutated(*payload);
    int flips = 1 + static_cast<int>(rng.uniform_u64(8));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.uniform_u64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.uniform_u64(8));
    }
    (void)service::decode_service_message(mutated.data(), mutated.size());
  }
  SUCCEED();
}

// Random digest-family messages round-trip through the full envelope; the
// scope list exercises the delta-varint coding across sparse id spaces.
TEST(WireFuzz, RandomDigestMessagesRoundTrip) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    membership::RefreshDigestMsg msg;
    msg.origin = static_cast<membership::NodeId>(rng.uniform_u64(10000));
    msg.origin_incarnation = rng.next_u64();
    msg.level = static_cast<uint8_t>(rng.uniform_u64(4));
    msg.epoch = rng.uniform_u64(1 << 20);
    msg.subtree = rng.uniform_u64(2) == 1;
    msg.view_hash = rng.next_u64();
    size_t buckets = 1 + rng.uniform_u64(64);
    for (size_t b = 0; b < buckets; ++b) msg.buckets.push_back(rng.next_u64());
    if (msg.subtree) {
      membership::NodeId id = 0;
      size_t subjects = rng.uniform_u64(200);
      for (size_t s = 0; s < subjects; ++s) {
        id += 1 + static_cast<membership::NodeId>(rng.uniform_u64(1 << 16));
        msg.subjects.push_back(id);
      }
    }
    msg.row_count = msg.subtree
                        ? static_cast<uint32_t>(msg.subjects.size())
                        : static_cast<uint32_t>(rng.uniform_u64(20000));

    auto payload = membership::encode_message(membership::Message{msg});
    auto decoded = decode(payload->data(), payload->size());
    ASSERT_TRUE(decoded.has_value());
    auto* out = std::get_if<membership::RefreshDigestMsg>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->origin, msg.origin);
    EXPECT_EQ(out->subtree, msg.subtree);
    EXPECT_EQ(out->row_count, msg.row_count);
    EXPECT_EQ(out->view_hash, msg.view_hash);
    EXPECT_EQ(out->buckets, msg.buckets);
    EXPECT_EQ(out->subjects, msg.subjects);
  }
}

TEST(WireFuzz, MutatedDigestMessagesNeverCrash) {
  util::Rng rng(12);
  membership::RefreshDigestMsg digest;
  digest.origin = 40;
  digest.subtree = true;
  digest.buckets.assign(16, 0x55aa55aa55aa55aaULL);
  for (membership::NodeId id = 20; id < 40; ++id) {
    digest.subjects.push_back(id);
  }
  digest.row_count = static_cast<uint32_t>(digest.subjects.size());

  membership::RefreshPullMsg pull;
  pull.requester = 7;
  pull.subtree = true;
  pull.bucket_indices = {1, 5, 9};
  for (membership::NodeId id = 20; id < 30; ++id) {
    pull.rows.push_back(membership::DigestRowSummary{id, 1, 0x1234});
  }

  membership::RefreshDeltaMsg delta;
  delta.responder = 40;
  delta.truncated = true;
  delta.entries = {representative_row(21, 2)};
  delta.confirmed = {22, 23, 24};

  const membership::Message corpus[] = {membership::Message{digest},
                                        membership::Message{pull},
                                        membership::Message{delta}};
  for (const auto& message : corpus) {
    auto payload = membership::encode_message(message);
    for (int i = 0; i < 20000; ++i) {
      std::vector<uint8_t> mutated(*payload);
      int flips = 1 + static_cast<int>(rng.uniform_u64(8));
      for (int f = 0; f < flips; ++f) {
        size_t pos = rng.uniform_u64(mutated.size());
        mutated[pos] ^= static_cast<uint8_t>(1u << rng.uniform_u64(8));
      }
      (void)decode(mutated.data(), mutated.size());
    }
    // Every truncated prefix as well: length fields lie, decoders may not.
    for (size_t len = 0; len < payload->size(); ++len) {
      (void)decode(payload->data(), len);
    }
  }
  SUCCEED();
}

// A forged bucket count past the decoder cap must be rejected outright, not
// allocated.
TEST(WireFuzz, OversizedDigestVectorsRejected) {
  membership::RefreshDigestMsg msg;
  msg.origin = 1;
  msg.buckets.assign(membership::kMaxDigestBuckets + 1, 7);
  auto payload = membership::encode_message(membership::Message{msg});
  EXPECT_FALSE(
      decode(payload->data(), payload->size()).has_value());

  membership::RefreshPullMsg pull;
  pull.requester = 2;
  pull.bucket_indices.assign(membership::kMaxDigestBuckets + 1, 3);
  payload = membership::encode_message(membership::Message{pull});
  EXPECT_FALSE(
      decode(payload->data(), payload->size()).has_value());
}

// Truncation fuzz: every prefix of a valid encoding must decode to nullopt
// or a well-formed message, never crash or over-read.
TEST(WireFuzz, TruncatedMessagesNeverCrash) {
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry = representative_row(5);
  auto mpayload = membership::encode_message(membership::Message{heartbeat});
  for (size_t len = 0; len < mpayload->size(); ++len) {
    (void)decode(mpayload->data(), len);
  }
  service::RequestMsg request;
  request.service = "search";
  auto spayload =
      service::encode_service_message(service::ServiceMessage{request});
  for (size_t len = 0; len < spayload->size(); ++len) {
    (void)service::decode_service_message(spayload->data(), len);
  }
  SUCCEED();
}


// A row decodes against a pool that already holds it (the held row comes
// back) or one that does not (a new row is interned). Truncated and forged
// frames must be rejected either way, and a forged span must never come
// back as the held row it imitates.
TEST(WireFuzz, TruncatedAndForgedRowsRejectedOnPoolHitAndMiss) {
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry = representative_row(5);
  membership::BootstrapResponseMsg image;
  image.responder = 1;
  for (membership::NodeId n = 0; n < 4; ++n) {
    image.entries.push_back(representative_row(n));
  }
  const membership::Message corpus[] = {membership::Message{heartbeat},
                                        membership::Message{image}};

  for (bool hit : {false, true}) {
    membership::RowPool pool;
    std::vector<membership::RowRef> held;  // keeps the hit path's rows live
    if (hit) {
      held.push_back(pool.intern(heartbeat.entry->data()));
      for (const auto& row : image.entries) {
        held.push_back(pool.intern(row->data()));
      }
    }
    for (const auto& message : corpus) {
      auto payload = membership::encode_message(message);
      ASSERT_TRUE(
          membership::decode_message(payload->data(), payload->size(), pool)
              .has_value());
      // Every field after each row is mandatory, so every strict prefix
      // is malformed.
      for (size_t len = 0; len < payload->size(); ++len) {
        EXPECT_FALSE(
            membership::decode_message(payload->data(), len, pool).has_value())
            << "hit=" << hit << " len=" << len;
      }
    }

    // Forged length: the machine.os string (after version, type, node u32,
    // incarnation u64, cpus u16, memory u32) claims more bytes than the
    // frame holds.
    auto payload = membership::encode_message(corpus[0]);
    std::vector<uint8_t> forged(*payload);
    const size_t os_length = 2 + 4 + 8 + 2 + 4;
    forged[os_length] = 0x7f;
    EXPECT_FALSE(
        membership::decode_message(forged.data(), forged.size(), pool)
            .has_value())
        << "hit=" << hit;

    // Forged content of the same length: decodes, but as the forged row,
    // not as the held row it differs from by one byte.
    forged = *payload;
    forged[os_length + 1] ^= 0x01;
    auto decoded =
        membership::decode_message(forged.data(), forged.size(), pool);
    ASSERT_TRUE(decoded.has_value());
    const auto& row = std::get<membership::HeartbeatMsg>(*decoded).entry;
    EXPECT_NE(row->data(), heartbeat.entry->data());
    EXPECT_FALSE(membership::same_row(*row, *heartbeat.entry));
  }
}

}  // namespace
}  // namespace tamp
