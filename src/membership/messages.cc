#include "membership/messages.h"

#include <limits>

#include "membership/wire.h"
#include "net/transport.h"

namespace tamp::membership {

// Field layouts (membership/wire.h), in the named namespace so that
// write_layout and read_layout find them by argument-dependent lookup.

template <class IO>
void row_list(IO& io, std::vector<RowRef>& rows) {
  io.list(rows, [&io](RowRef& row) { io.row(row); });
}

template <class IO>
void layout(IO& io, HeartbeatMsg& m) {
  io.row(m.entry);
  io.u8(m.level);
  io.lenient_flag(m.is_leader);
  io.lenient_flag(m.leaving);
  io.u32(m.backup);
  io.u64(m.seq);
  io.varint(m.epoch);
}

template <class IO>
void layout(IO& io, UpdateMsg& m) {
  io.u32(m.origin);
  io.u64(m.origin_incarnation);
  io.varint(m.epoch);
  io.varint(m.window_base);
  io.list(m.records, [&io](UpdateRecord& record) {
    io.u64(record.seq);
    io.u8(record.kind);
    io.check(record.kind == UpdateKind::kJoin ||
             record.kind == UpdateKind::kLeave);
    io.u32(record.subject);
    io.u64(record.incarnation);
    io.varint(record.epoch);
    bool has_entry = record.entry != nullptr;
    io.lenient_flag(has_entry);
    if (has_entry) io.row(record.entry);
  });
}

template <class IO>
void layout(IO& io, BootstrapRequestMsg& m) {
  io.u32(m.requester);
  io.u8(m.level);
  io.varint(m.epoch);
  row_list(io, m.known);
}

template <class IO>
void layout(IO& io, BootstrapResponseMsg& m) {
  io.u32(m.responder);
  io.u64(m.responder_incarnation);
  io.u8(m.level);
  io.varint(m.epoch);
  row_list(io, m.entries);
}

template <class IO>
void layout(IO& io, SyncRequestMsg& m) {
  io.u32(m.requester);
  io.u8(m.level);
  io.u64(m.last_seq_seen);
  io.varint(m.epoch);
}

template <class IO>
void layout(IO& io, SyncResponseMsg& m) {
  io.u32(m.responder);
  io.u64(m.responder_incarnation);
  io.u8(m.level);
  io.u64(m.stream_seq);
  io.varint(m.epoch);
  row_list(io, m.entries);
}

template <class IO>
void layout(IO& io, ElectionMsg& m) {
  io.u32(m.candidate);
  io.u8(m.level);
}

template <class IO>
void layout(IO& io, ElectionAnswerMsg& m) {
  io.u32(m.responder);
  io.u8(m.level);
}

template <class IO>
void layout(IO& io, CoordinatorMsg& m) {
  io.u32(m.leader);
  io.u8(m.level);
  io.u32(m.backup);
  io.varint(m.epoch);
  io.u32(m.prev);
  io.u64(m.leader_incarnation);
  io.u64(m.prev_incarnation);
}

template <class IO>
void layout(IO& io, GossipMsg& m) {
  io.u32(m.sender);
  io.list(m.records, [&io](GossipRecord& record) {
    io.row(record.entry);
    io.u64(record.heartbeat_counter);
  });
}

template <class IO>
void layout(IO& io, ProxyHeartbeatMsg& m) {
  io.u16(m.dc);
  io.u32(m.sender);
  io.u64(m.seq);
  io.map(m.summary.availability, [&io](auto& service, auto& partitions) {
    io.str(service);
    io.map(partitions, [&io](auto& partition, auto& count) {
      io.varint(partition);
      io.varint(count);
    });
  });
}

template <class IO>
void layout(IO& io, BusyMsg& m) {
  io.u32(m.responder);
  io.u8(m.level);
  io.u8(m.kind);
  io.check(m.kind <= BusyKind::kSync);
  io.varint(m.retry_after);
}

template <class IO>
void layout(IO& io, RefreshDigestMsg& m) {
  io.u32(m.origin);
  io.u64(m.origin_incarnation);
  io.u8(m.level);
  io.varint(m.epoch);
  io.flag(m.subtree);
  io.varint(m.row_count);
  io.u64(m.view_hash);
  // A digest never carries more buckets than rows could fill; the cap stops
  // a forged count before it allocates.
  io.list(m.buckets, [&io](uint64_t& b) { io.u64(b); }, kMaxDigestBuckets);
  // Delta-varint over the ascending subject list: dense id ranges cost one
  // byte per row, and a zero delta past the first id (a duplicate or a
  // regression) is malformed.
  NodeId prev = 0;
  bool first = true;
  const auto subject = [&](NodeId& id) {
    uint64_t delta = static_cast<NodeId>(id - prev);
    io.varint(delta);
    io.check(first || delta != 0);
    io.check(prev + delta <= std::numeric_limits<NodeId>::max());
    if constexpr (IO::kReading) id = static_cast<NodeId>(prev + delta);
    prev = id;
    first = false;
  };
  io.list(m.subjects, subject, kMaxDigestSubjects);
  // Only subtree digests carry a scope list, and it matches the row count.
  io.check(m.subjects.empty() || m.subtree);
  io.check(!m.subtree || m.subjects.size() == m.row_count);
}

template <class IO>
void layout(IO& io, RefreshPullMsg& m) {
  io.u32(m.requester);
  io.u8(m.level);
  io.varint(m.epoch);
  io.flag(m.subtree);
  io.list(
      m.bucket_indices, [&io](uint16_t& index) { io.u16(index); },
      kMaxDigestBuckets);
  io.list(m.rows, [&io](DigestRowSummary& row) {
    io.u32(row.subject);
    io.u64(row.incarnation);
    io.u64(row.row_hash);
  });
}

template <class IO>
void layout(IO& io, RefreshDeltaMsg& m) {
  io.u32(m.responder);
  io.u64(m.responder_incarnation);
  io.u8(m.level);
  io.varint(m.epoch);
  io.flag(m.truncated);
  row_list(io, m.entries);
  io.list(m.confirmed, [&io](NodeId& id) { io.u32(id); });
}

namespace {

// The type byte of each Message alternative, in variant order (12 is
// retired: proxy updates travel as kProxyHeartbeat frames).
constexpr MessageType kMessageTypes[] = {
    MessageType::kHeartbeat,        MessageType::kUpdate,
    MessageType::kBootstrapRequest, MessageType::kBootstrapResponse,
    MessageType::kSyncRequest,      MessageType::kSyncResponse,
    MessageType::kElection,         MessageType::kElectionAnswer,
    MessageType::kCoordinator,      MessageType::kGossip,
    MessageType::kProxyHeartbeat,   MessageType::kBusy,
    MessageType::kRefreshDigest,    MessageType::kRefreshPull,
    MessageType::kRefreshDelta,
};

// A frame: the version byte, then the variant envelope, zero-padded to
// `pad_to` bytes.
template <class Sink>
void write_frame(Sink& w, const Message& message, size_t pad_to) {
  w.u8(kWireVersionByte);
  write_variant(w, message, kMessageTypes);
  if (pad_to > 0) w.pad_to(pad_to);
}

}  // namespace

net::Payload encode_message(Message message, size_t pad_to) {
  WireCounter size;
  write_frame(size, message, pad_to);
  const auto kind = static_cast<uint8_t>(kMessageTypes[message.index()]);
  return net::make_payload(std::move(message), size.size(), kind);
}

std::vector<uint8_t> encode_message_bytes(const Message& message,
                                          size_t pad_to) {
  WireWriter w;
  write_frame(w, message, pad_to);
  return w.take();
}

std::optional<Message> decode_message(const uint8_t* data, size_t size) {
  if (data == nullptr || size == 0) return std::nullopt;
  WireReader r(data, size);
  // Version gate: v1 frames began with a bare MessageType byte (1..12),
  // which can never equal the tagged version byte — old frames are rejected
  // here rather than misparsed further down.
  if (r.u8() != kWireVersionByte) return std::nullopt;
  return read_variant<Message>(r, kMessageTypes);
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
  static constexpr const char* kNames[kWireKindCount] = {
      "unknown",         "heartbeat",      "update",
      "bootstrap_request", "bootstrap_response", "sync_request",
      "sync_response",   "election",       "election_answer",
      "coordinator",     "gossip",         "proxy_heartbeat",
      "unknown",  // 12 is retired
      "busy",            "refresh_digest", "refresh_pull",
      "refresh_delta",
  };
  return kind < kWireKindCount ? kNames[kind] : "unknown";
}

void install_wire_kind_names(net::Network& net) {
  std::vector<std::string> names;
  for (uint8_t kind = 0; kind < kWireKindCount; ++kind) {
    names.emplace_back(wire_kind_name(kind));
  }
  net.set_wire_kind_names(std::move(names));
}

}  // namespace tamp::membership
