#include "service/messages.h"

#include "net/buffer_pool.h"

namespace tamp::service {

using membership::WireReader;
using membership::WireWriter;

namespace {

struct Encoder {
  WireWriter& w;
  size_t pad = 0;

  void operator()(const LoadPollMsg& m) {
    w.u8(static_cast<uint8_t>(ServiceMsgType::kLoadPoll));
    w.u64(m.poll_id);
    w.u32(m.from);
    w.u16(m.reply_port);
  }
  void operator()(const LoadReplyMsg& m) {
    w.u8(static_cast<uint8_t>(ServiceMsgType::kLoadReply));
    w.u64(m.poll_id);
    w.u32(m.from);
    w.u32(m.load);
  }
  void operator()(const RequestMsg& m) {
    w.u8(static_cast<uint8_t>(ServiceMsgType::kRequest));
    w.u64(m.request_id);
    w.u32(m.reply_host);
    w.u16(m.reply_port);
    w.str(m.service);
    w.varint(static_cast<uint64_t>(m.partition));
    w.u32(m.request_bytes);
    w.u32(m.response_bytes);
    w.u8(m.relay_hops);
    pad = m.request_bytes;  // body is simulated as padding
  }
  void operator()(const ResponseMsg& m) {
    w.u8(static_cast<uint8_t>(ServiceMsgType::kResponse));
    w.u64(m.request_id);
    w.u32(m.from);
    w.u8(static_cast<uint8_t>(m.status));
    w.u32(m.payload_bytes);
    pad = m.payload_bytes;
  }
  void operator()(const RelaySynMsg& m) {
    w.u8(static_cast<uint8_t>(ServiceMsgType::kRelaySyn));
    w.u64(m.conn_id);
    w.u32(m.from);
  }
  void operator()(const RelayAckMsg& m) {
    w.u8(static_cast<uint8_t>(ServiceMsgType::kRelayAck));
    w.u64(m.conn_id);
    w.u32(m.from);
  }
};

}  // namespace

net::Payload encode_service_message(const ServiceMessage& message) {
  WireWriter w(net::acquire_buffer());
  Encoder encoder{w};
  std::visit(encoder, message);
  if (encoder.pad > 0) w.pad_to(w.size() + encoder.pad);
  return net::make_payload(w.take());
}

std::optional<ServiceMessage> decode_service_message(const uint8_t* data,
                                                     size_t size) {
  if (data == nullptr || size == 0) return std::nullopt;
  WireReader r(data, size);
  auto type = static_cast<ServiceMsgType>(r.u8());
  switch (type) {
    case ServiceMsgType::kLoadPoll: {
      LoadPollMsg m;
      m.poll_id = r.u64();
      m.from = r.u32();
      m.reply_port = r.u16();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case ServiceMsgType::kLoadReply: {
      LoadReplyMsg m;
      m.poll_id = r.u64();
      m.from = r.u32();
      m.load = r.u32();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case ServiceMsgType::kRequest: {
      RequestMsg m;
      m.request_id = r.u64();
      m.reply_host = r.u32();
      m.reply_port = r.u16();
      m.service = r.str();
      m.partition = static_cast<int32_t>(r.varint());
      m.request_bytes = r.u32();
      m.response_bytes = r.u32();
      m.relay_hops = r.u8();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case ServiceMsgType::kResponse: {
      ResponseMsg m;
      m.request_id = r.u64();
      m.from = r.u32();
      m.status = static_cast<ResponseStatus>(r.u8());
      m.payload_bytes = r.u32();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case ServiceMsgType::kRelaySyn: {
      RelaySynMsg m;
      m.conn_id = r.u64();
      m.from = r.u32();
      if (!r.ok()) return std::nullopt;
      return m;
    }
    case ServiceMsgType::kRelayAck: {
      RelayAckMsg m;
      m.conn_id = r.u64();
      m.from = r.u32();
      if (!r.ok()) return std::nullopt;
      return m;
    }
  }
  return std::nullopt;
}

}  // namespace tamp::service
