// Wire messages of the service invocation plane (the Neptune consumer /
// provider modules and the cross-DC proxy relay). These run on their own
// ports, separate from the membership plane.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "membership/wire.h"
#include "net/packet.h"

namespace tamp::service {

enum class ServiceMsgType : uint8_t {
  kLoadPoll = 1,    // random-polling load balancing probe
  kLoadReply = 2,
  kRequest = 3,
  kResponse = 4,
  kRelaySyn = 5,    // proxy relay connection setup over the WAN
  kRelayAck = 6,
};

struct LoadPollMsg {
  uint64_t poll_id = 0;
  net::HostId from = net::kInvalidHost;
  net::Port reply_port = 0;
};

struct LoadReplyMsg {
  uint64_t poll_id = 0;
  net::HostId from = net::kInvalidHost;
  uint32_t load = 0;  // queued + in-flight requests at the provider
};

enum class ResponseStatus : uint8_t {
  kOk = 0,
  kNotHosted = 1,     // provider does not host (service, partition)
  kUnavailable = 2,   // no provider found anywhere
  kOverloaded = 3,
};

// The largest simulated body a decoder accepts: far above any size in use,
// low enough that a forged size cannot drive a giant allocation.
inline constexpr uint32_t kMaxServiceBody = uint32_t{1} << 20;

struct RequestMsg {
  uint64_t request_id = 0;
  net::HostId reply_host = net::kInvalidHost;
  net::Port reply_port = 0;
  std::string service;
  int32_t partition = 0;
  uint32_t request_bytes = 0;   // simulated request body (padded on wire)
  uint32_t response_bytes = 0;  // size the provider should respond with
  // Remaining relay hops: a request arriving at a proxy with hops == 0 must
  // be served locally or rejected — never re-relayed (prevents ping-pong on
  // stale cross-DC summaries).
  uint8_t relay_hops = 1;
};

struct ResponseMsg {
  uint64_t request_id = 0;
  net::HostId from = net::kInvalidHost;
  ResponseStatus status = ResponseStatus::kOk;
  uint32_t payload_bytes = 0;  // padded on wire
};

struct RelaySynMsg {
  uint64_t conn_id = 0;
  net::HostId from = net::kInvalidHost;
};

struct RelayAckMsg {
  uint64_t conn_id = 0;
  net::HostId from = net::kInvalidHost;
};

using ServiceMessage = std::variant<LoadPollMsg, LoadReplyMsg, RequestMsg,
                                    ResponseMsg, RelaySynMsg, RelayAckMsg>;

// The payload a sender ships: `message` itself, charged the size of its
// encoding, simulated bodies included, under wire kind 0. No bytes are
// built.
net::Payload encode_service_message(ServiceMessage message);

// The service plane's reference codec: the bytes encode_service_message
// charges for, and the decoder that reads them back.
std::vector<uint8_t> encode_service_message_bytes(
    const ServiceMessage& message);
std::optional<ServiceMessage> decode_service_message(const uint8_t* data,
                                                     size_t size);

// The message a delivered packet carries; null for a payload carrying
// anything else (a membership message, say).
inline std::shared_ptr<const ServiceMessage> decode_service_message(
    const net::Packet& packet) {
  return net::carried<ServiceMessage>(packet.payload);
}

}  // namespace tamp::service
