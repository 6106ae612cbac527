#include "service/messages.h"

namespace tamp::service {

// Field layouts (membership/wire.h), in the named namespace so the wire
// templates find them by argument-dependent lookup.

template <class IO>
void layout(IO& io, LoadPollMsg& m) {
  io.u64(m.poll_id);
  io.u32(m.from);
  io.u16(m.reply_port);
}

template <class IO>
void layout(IO& io, LoadReplyMsg& m) {
  io.u64(m.poll_id);
  io.u32(m.from);
  io.u32(m.load);
}

template <class IO>
void layout(IO& io, RequestMsg& m) {
  io.u64(m.request_id);
  io.u32(m.reply_host);
  io.u16(m.reply_port);
  io.str(m.service);
  io.varint(m.partition);
  io.u32(m.request_bytes);
  io.u32(m.response_bytes);
  io.check(m.request_bytes <= kMaxServiceBody &&
           m.response_bytes <= kMaxServiceBody);
  io.u8(m.relay_hops);
  io.padding(m.request_bytes);  // the body is simulated as padding
}

template <class IO>
void layout(IO& io, ResponseMsg& m) {
  io.u64(m.request_id);
  io.u32(m.from);
  io.u8(m.status);
  io.u32(m.payload_bytes);
  io.check(m.payload_bytes <= kMaxServiceBody);
  io.padding(m.payload_bytes);
}

template <class IO>
void layout(IO& io, RelaySynMsg& m) {
  io.u64(m.conn_id);
  io.u32(m.from);
}

template <class IO>
void layout(IO& io, RelayAckMsg& m) {
  io.u64(m.conn_id);
  io.u32(m.from);
}

namespace {

// The type byte of each ServiceMessage alternative, in variant order.
constexpr ServiceMsgType kServiceTypes[] = {
    ServiceMsgType::kLoadPoll, ServiceMsgType::kLoadReply,
    ServiceMsgType::kRequest,  ServiceMsgType::kResponse,
    ServiceMsgType::kRelaySyn, ServiceMsgType::kRelayAck,
};

}  // namespace

net::Payload encode_service_message(ServiceMessage message) {
  membership::WireCounter size;
  membership::write_variant(size, message, kServiceTypes);
  return net::make_payload(std::move(message), size.size());
}

std::vector<uint8_t> encode_service_message_bytes(
    const ServiceMessage& message) {
  membership::WireWriter w;
  membership::write_variant(w, message, kServiceTypes);
  return w.take();
}

std::optional<ServiceMessage> decode_service_message(const uint8_t* data,
                                                     size_t size) {
  if (data == nullptr || size == 0) return std::nullopt;
  membership::WireReader r(data, size);
  return membership::read_variant<ServiceMessage>(r, kServiceTypes);
}

}  // namespace tamp::service
