#include "membership/messages.h"

#include <limits>

#include "membership/codec.h"
#include "net/buffer_pool.h"
#include "net/transport.h"
#include "util/check.h"

namespace tamp::membership {
namespace {

void encode_entries(WireWriter& w, const std::vector<RowRef>& entries) {
  w.varint(entries.size());
  for (const auto& entry : entries) encode_row(w, *entry);
}

bool decode_entries(WireReader& r, RowPool& pool, std::vector<RowRef>& out) {
  uint64_t n = r.varint();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    RowRef entry = pool.decode(r);
    if (!entry) return false;
    out.push_back(std::move(entry));
  }
  return r.ok();
}

void encode_summary(WireWriter& w, const ServiceSummary& summary) {
  w.varint(summary.availability.size());
  for (const auto& [service, partitions] : summary.availability) {
    w.str(service);
    w.varint(partitions.size());
    for (const auto& [partition, count] : partitions) {
      w.varint(static_cast<uint64_t>(partition));
      w.varint(static_cast<uint64_t>(count));
    }
  }
}

ServiceSummary decode_summary(WireReader& r) {
  ServiceSummary summary;
  uint64_t services = r.varint();
  for (uint64_t i = 0; i < services && r.ok(); ++i) {
    std::string name = r.str();
    uint64_t partitions = r.varint();
    auto& slot = summary.availability[name];
    for (uint64_t p = 0; p < partitions && r.ok(); ++p) {
      int partition = static_cast<int>(r.varint());
      int count = static_cast<int>(r.varint());
      slot[partition] = count;
    }
  }
  return summary;
}

struct Encoder {
  WireWriter& w;

  void operator()(const HeartbeatMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kHeartbeat));
    encode_row(w, *m.entry);
    w.u8(m.level);
    w.u8(m.is_leader ? 1 : 0);
    w.u8(m.leaving ? 1 : 0);
    w.u32(m.backup);
    w.u64(m.seq);
    w.varint(m.epoch);
  }
  void operator()(const UpdateMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kUpdate));
    w.u32(m.origin);
    w.u64(m.origin_incarnation);
    w.varint(m.epoch);
    w.varint(m.window_base);
    w.varint(m.records.size());
    for (const auto& record : m.records) {
      w.u64(record.seq);
      w.u8(static_cast<uint8_t>(record.kind));
      w.u32(record.subject);
      w.u64(record.incarnation);
      w.varint(record.epoch);
      w.u8(record.entry ? 1 : 0);
      if (record.entry) encode_row(w, *record.entry);
    }
  }
  void operator()(const BootstrapRequestMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kBootstrapRequest));
    w.u32(m.requester);
    w.u8(m.level);
    w.varint(m.epoch);
    encode_entries(w, m.known);
  }
  void operator()(const BootstrapResponseMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kBootstrapResponse));
    w.u32(m.responder);
    w.u64(m.responder_incarnation);
    w.u8(m.level);
    w.varint(m.epoch);
    encode_entries(w, m.entries);
  }
  void operator()(const SyncRequestMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kSyncRequest));
    w.u32(m.requester);
    w.u8(m.level);
    w.u64(m.last_seq_seen);
    w.varint(m.epoch);
  }
  void operator()(const SyncResponseMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kSyncResponse));
    w.u32(m.responder);
    w.u64(m.responder_incarnation);
    w.u8(m.level);
    w.u64(m.stream_seq);
    w.varint(m.epoch);
    encode_entries(w, m.entries);
  }
  void operator()(const ElectionMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kElection));
    w.u32(m.candidate);
    w.u8(m.level);
  }
  void operator()(const ElectionAnswerMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kElectionAnswer));
    w.u32(m.responder);
    w.u8(m.level);
  }
  void operator()(const CoordinatorMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kCoordinator));
    w.u32(m.leader);
    w.u8(m.level);
    w.u32(m.backup);
    w.varint(m.epoch);
    w.u32(m.prev);
    w.u64(m.leader_incarnation);
    w.u64(m.prev_incarnation);
  }
  void operator()(const GossipMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kGossip));
    w.u32(m.sender);
    w.varint(m.records.size());
    for (const auto& record : m.records) {
      encode_row(w, *record.entry);
      w.u64(record.heartbeat_counter);
    }
  }
  void operator()(const ProxyHeartbeatMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kProxyHeartbeat));
    w.u16(m.dc);
    w.u32(m.sender);
    w.u64(m.seq);
    encode_summary(w, m.summary);
  }
  void operator()(const BusyMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kBusy));
    w.u32(m.responder);
    w.u8(m.level);
    w.u8(static_cast<uint8_t>(m.kind));
    w.varint(static_cast<uint64_t>(m.retry_after));
  }
  void operator()(const RefreshDigestMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kRefreshDigest));
    w.u32(m.origin);
    w.u64(m.origin_incarnation);
    w.u8(m.level);
    w.varint(m.epoch);
    w.u8(m.subtree ? 1 : 0);
    w.varint(m.row_count);
    w.u64(m.view_hash);
    w.varint(m.buckets.size());
    for (uint64_t bucket : m.buckets) w.u64(bucket);
    // Delta-varint over the ascending subject list: dense id ranges cost
    // one byte per row.
    w.varint(m.subjects.size());
    NodeId prev = 0;
    for (NodeId id : m.subjects) {
      w.varint(id - prev);
      prev = id;
    }
  }
  void operator()(const RefreshPullMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kRefreshPull));
    w.u32(m.requester);
    w.u8(m.level);
    w.varint(m.epoch);
    w.u8(m.subtree ? 1 : 0);
    w.varint(m.bucket_indices.size());
    for (uint16_t index : m.bucket_indices) w.u16(index);
    w.varint(m.rows.size());
    for (const auto& row : m.rows) {
      w.u32(row.subject);
      w.u64(row.incarnation);
      w.u64(row.row_hash);
    }
  }
  void operator()(const RefreshDeltaMsg& m) {
    w.u8(static_cast<uint8_t>(MessageType::kRefreshDelta));
    w.u32(m.responder);
    w.u64(m.responder_incarnation);
    w.u8(m.level);
    w.varint(m.epoch);
    w.u8(m.truncated ? 1 : 0);
    encode_entries(w, m.entries);
    w.varint(m.confirmed.size());
    for (NodeId id : m.confirmed) w.u32(id);
  }
};

}  // namespace

net::Payload encode_message(const Message& message, size_t pad_to) {
  WireWriter w(net::acquire_buffer());
  w.u8(kWireVersionByte);
  std::visit(Encoder{w}, message);
  if (pad_to > 0) w.pad_to(pad_to);
  return net::make_payload(w.take());
}

std::optional<Message> decode_message(const uint8_t* data, size_t size,
                                      RowPool& pool) {
  if (data == nullptr || size == 0) return std::nullopt;
  WireReader r(data, size);
  // Version gate: v1 frames began with a bare MessageType byte (1..12),
  // which can never equal the tagged version byte — old frames are rejected
  // here rather than misparsed further down.
  if (r.u8() != kWireVersionByte) return std::nullopt;
  auto type = static_cast<MessageType>(r.u8());
  switch (type) {
    case MessageType::kHeartbeat: {
      HeartbeatMsg m;
      m.entry = pool.decode(r);
      if (!m.entry) return std::nullopt;
      m.level = r.u8();
      m.is_leader = r.u8() != 0;
      m.leaving = r.u8() != 0;
      m.backup = r.u32();
      m.seq = r.u64();
      m.epoch = r.varint();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kUpdate: {
      UpdateMsg m;
      m.origin = r.u32();
      m.origin_incarnation = r.u64();
      m.epoch = r.varint();
      m.window_base = r.varint();
      uint64_t n = r.varint();
      for (uint64_t i = 0; i < n && r.ok(); ++i) {
        UpdateRecord record;
        record.seq = r.u64();
        record.kind = static_cast<UpdateKind>(r.u8());
        if (record.kind != UpdateKind::kJoin &&
            record.kind != UpdateKind::kLeave) {
          return std::nullopt;
        }
        record.subject = r.u32();
        record.incarnation = r.u64();
        record.epoch = r.varint();
        if (r.u8() != 0) {
          record.entry = pool.decode(r);
          if (!record.entry) return std::nullopt;
        }
        m.records.push_back(std::move(record));
      }
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kBootstrapRequest: {
      BootstrapRequestMsg m;
      m.requester = r.u32();
      m.level = r.u8();
      m.epoch = r.varint();
      if (!decode_entries(r, pool, m.known)) return std::nullopt;
      return m;
    }
    case MessageType::kBootstrapResponse: {
      BootstrapResponseMsg m;
      m.responder = r.u32();
      m.responder_incarnation = r.u64();
      m.level = r.u8();
      m.epoch = r.varint();
      if (!decode_entries(r, pool, m.entries)) return std::nullopt;
      return m;
    }
    case MessageType::kSyncRequest: {
      SyncRequestMsg m;
      m.requester = r.u32();
      m.level = r.u8();
      m.last_seq_seen = r.u64();
      m.epoch = r.varint();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kSyncResponse: {
      SyncResponseMsg m;
      m.responder = r.u32();
      m.responder_incarnation = r.u64();
      m.level = r.u8();
      m.stream_seq = r.u64();
      m.epoch = r.varint();
      if (!decode_entries(r, pool, m.entries)) return std::nullopt;
      return m;
    }
    case MessageType::kElection: {
      ElectionMsg m;
      m.candidate = r.u32();
      m.level = r.u8();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kElectionAnswer: {
      ElectionAnswerMsg m;
      m.responder = r.u32();
      m.level = r.u8();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kCoordinator: {
      CoordinatorMsg m;
      m.leader = r.u32();
      m.level = r.u8();
      m.backup = r.u32();
      m.epoch = r.varint();
      m.prev = r.u32();
      m.leader_incarnation = r.u64();
      m.prev_incarnation = r.u64();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kGossip: {
      GossipMsg m;
      m.sender = r.u32();
      uint64_t n = r.varint();
      for (uint64_t i = 0; i < n && r.ok(); ++i) {
        GossipRecord record;
        record.entry = pool.decode(r);
        if (!record.entry) return std::nullopt;
        record.heartbeat_counter = r.u64();
        m.records.push_back(std::move(record));
      }
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kProxyHeartbeat: {
      ProxyHeartbeatMsg m;
      m.dc = r.u16();
      m.sender = r.u32();
      m.seq = r.u64();
      m.summary = decode_summary(r);
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kBusy: {
      BusyMsg m;
      m.responder = r.u32();
      m.level = r.u8();
      uint8_t kind = r.u8();
      if (kind > static_cast<uint8_t>(BusyKind::kSync)) return std::nullopt;
      m.kind = static_cast<BusyKind>(kind);
      m.retry_after = static_cast<int64_t>(r.varint());
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kRefreshDigest: {
      RefreshDigestMsg m;
      m.origin = r.u32();
      m.origin_incarnation = r.u64();
      m.level = r.u8();
      m.epoch = r.varint();
      uint8_t subtree = r.u8();
      if (subtree > 1) return std::nullopt;
      m.subtree = subtree != 0;
      m.row_count = static_cast<uint32_t>(r.varint());
      m.view_hash = r.u64();
      uint64_t buckets = r.varint();
      // A digest never carries more buckets than rows could fill; cap the
      // count before reserving so a forged length can't balloon allocation.
      if (buckets > kMaxDigestBuckets) return std::nullopt;
      for (uint64_t i = 0; i < buckets && r.ok(); ++i) {
        m.buckets.push_back(r.u64());
      }
      uint64_t subjects = r.varint();
      if (subjects > kMaxDigestSubjects) return std::nullopt;
      // Scope list rules: only subtree digests carry one, it matches the
      // advertised row count, and ids ascend strictly (the delta coding
      // makes a duplicate or regression a zero delta past the first id).
      if (subjects > 0 && !m.subtree) return std::nullopt;
      if (m.subtree && subjects != m.row_count) return std::nullopt;
      NodeId prev = 0;
      for (uint64_t i = 0; i < subjects && r.ok(); ++i) {
        const uint64_t delta = r.varint();
        if (i > 0 && delta == 0) return std::nullopt;
        const uint64_t id = prev + delta;
        if (id > std::numeric_limits<NodeId>::max()) return std::nullopt;
        prev = static_cast<NodeId>(id);
        m.subjects.push_back(prev);
      }
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kRefreshPull: {
      RefreshPullMsg m;
      m.requester = r.u32();
      m.level = r.u8();
      m.epoch = r.varint();
      uint8_t subtree = r.u8();
      if (subtree > 1) return std::nullopt;
      m.subtree = subtree != 0;
      uint64_t indices = r.varint();
      if (indices > kMaxDigestBuckets) return std::nullopt;
      for (uint64_t i = 0; i < indices && r.ok(); ++i) {
        m.bucket_indices.push_back(r.u16());
      }
      uint64_t rows = r.varint();
      for (uint64_t i = 0; i < rows && r.ok(); ++i) {
        DigestRowSummary row;
        row.subject = r.u32();
        row.incarnation = r.u64();
        row.row_hash = r.u64();
        m.rows.push_back(row);
      }
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case MessageType::kRefreshDelta: {
      RefreshDeltaMsg m;
      m.responder = r.u32();
      m.responder_incarnation = r.u64();
      m.level = r.u8();
      m.epoch = r.varint();
      uint8_t truncated = r.u8();
      if (truncated > 1) return std::nullopt;
      m.truncated = truncated != 0;
      if (!decode_entries(r, pool, m.entries)) return std::nullopt;
      uint64_t confirmed = r.varint();
      for (uint64_t i = 0; i < confirmed && r.ok(); ++i) {
        m.confirmed.push_back(r.u32());
      }
      if (!r.ok()) return std::nullopt;
      return m;
    }
  }
  return std::nullopt;
}

namespace {

// A payload's decode as its receivers share it; nullopt when malformed.
struct DecodedMessage final : net::Decoded {
  DecodedMessage(const RowPool& pool, std::optional<Message> decoded)
      : net::Decoded(&pool), message(std::move(decoded)) {}
  std::optional<Message> message;
};

}  // namespace

std::shared_ptr<const Message> decode_message(const net::Packet& packet,
                                              RowPool& pool) {
  if (!packet.payload) return nullptr;
  const net::PayloadBytes& bytes = *packet.payload;
  if (bytes.decoded == nullptr) {
    bytes.decoded = std::make_unique<DecodedMessage>(
        pool, decode_message(bytes.data(), bytes.size(), pool));
  }
  // A payload never leaves its simulation, whose receivers share one pool.
  TAMP_CHECK(bytes.decoded->owner == &pool);
  const auto& held = static_cast<const DecodedMessage&>(*bytes.decoded);
  if (!held.message) return nullptr;
  // Shares the payload's ownership: the message lives as long as its bytes.
  return std::shared_ptr<const Message>(packet.payload, &*held.message);
}

size_t digest_bucket_of(NodeId node, size_t bucket_count) {
  // splitmix64 finalizer: consecutive node ids land in unrelated buckets.
  uint64_t x = node;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return bucket_count == 0 ? 0 : static_cast<size_t>(x % bucket_count);
}

const char* wire_kind_name(uint8_t kind) {
  switch (static_cast<MessageType>(kind)) {
    case MessageType::kHeartbeat:
      return "heartbeat";
    case MessageType::kUpdate:
      return "update";
    case MessageType::kBootstrapRequest:
      return "bootstrap_request";
    case MessageType::kBootstrapResponse:
      return "bootstrap_response";
    case MessageType::kSyncRequest:
      return "sync_request";
    case MessageType::kSyncResponse:
      return "sync_response";
    case MessageType::kElection:
      return "election";
    case MessageType::kElectionAnswer:
      return "election_answer";
    case MessageType::kCoordinator:
      return "coordinator";
    case MessageType::kGossip:
      return "gossip";
    case MessageType::kProxyHeartbeat:
      return "proxy_heartbeat";
    case MessageType::kBusy:
      return "busy";
    case MessageType::kRefreshDigest:
      return "refresh_digest";
    case MessageType::kRefreshPull:
      return "refresh_pull";
    case MessageType::kRefreshDelta:
      return "refresh_delta";
  }
  return "unknown";
}

void install_wire_classifier(net::Network& net) {
  net::WireClassifier classifier;
  classifier.classify = [](const uint8_t* data, size_t size) {
    return classify_wire_kind(data, size);
  };
  classifier.name = [](uint8_t kind) { return std::string(wire_kind_name(kind)); };
  classifier.kind_count = kWireKindCount;
  net.set_wire_classifier(std::move(classifier));
}

}  // namespace tamp::membership
