// The unit of delivery on the simulated network.
//
// A payload is the sender's message, immutable once built, with the size its
// encoding takes on the wire and its wire kind. Every receiver of a
// multicast fan-out (and every injected duplicate) shares it, so no receiver
// parses anything. A fan-out's receivers with one delivery delay share even
// the Packet: the transport schedules it once for the group and stamps
// `to.host` before each delivery, so a handler sees its own address.
// `wire_bytes` is what the bandwidth accounting charges: payload size plus
// per-fragment UDP/IP/Ethernet overhead, matching how the paper counts
// heartbeat bandwidth on real links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/ids.h"
#include "sim/time.h"

namespace tamp::net {

// What every payload has, whatever message it carries: the encoded size
// (what the transport charges) and the wire kind its encoder stamped for
// per-kind accounting (0: unknown). `type` names the Carried<M> it is, so
// carried<M>() can check it before the downcast.
struct CarriedBase {
  CarriedBase(size_t size, uint8_t kind, const void* type)
      : size(size), kind(kind), type(type) {}
  virtual ~CarriedBase() = default;

  const size_t size;
  const uint8_t kind;
  const void* const type;
};

// A payload carrying an M (net/ never names the message types; each plane
// picks its own M).
template <class M>
struct Carried final : CarriedBase {
  static constexpr char kType = 0;  // its address tags the type
  Carried(M message, size_t size, uint8_t kind)
      : CarriedBase(size, kind, &kType), message(std::move(message)) {}
  const M message;
};

using Payload = std::shared_ptr<const CarriedBase>;

template <class M>
Payload make_payload(M message, size_t size, uint8_t kind = 0) {
  return std::make_shared<const Carried<M>>(std::move(message), size, kind);
}

// The M a payload carries, sharing the payload's ownership; null for a
// payload carrying anything else, so a packet that reaches another plane's
// port reads as no message.
template <class M>
std::shared_ptr<const M> carried(const Payload& payload) {
  if (!payload || payload->type != &Carried<M>::kType) return nullptr;
  return {payload, &static_cast<const Carried<M>&>(*payload).message};
}

enum class DeliveryKind : uint8_t { kUnicast, kMulticast };

// 56 B: the delivery closure `[this, packet]` then fits sim::Callback's
// inline buffer (a static_assert in transport.cc holds that), so a unicast
// delivery allocates nothing. Mind the padding when adding a field.
struct Packet {
  Address from;
  Address to;               // multicast: to.host is this delivery's receiver
  ChannelId channel = 0;    // multicast only
  DeliveryKind kind = DeliveryKind::kUnicast;
  uint8_t ttl = 0;          // TTL the sender used (multicast only)
  Payload payload;
  size_t wire_bytes = 0;    // payload + header overhead, all fragments
  sim::Time sent_at = 0;

  size_t size() const { return payload ? payload->size : 0; }
};

}  // namespace tamp::net
