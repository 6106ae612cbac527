// The unit of delivery on the simulated network.
//
// Payload bytes are shared (not copied) across the receivers of a multicast
// fan-out, and so is the message they encode. `wire_bytes` is what the
// bandwidth accounting charges: payload plus per-fragment UDP/IP/Ethernet
// overhead, matching how the paper counts heartbeat bandwidth on real links.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ids.h"
#include "sim/time.h"

namespace tamp::net {

// The message a payload encodes, as the encoder's own subclass (net/ cannot
// name message types).
struct Decoded {
  virtual ~Decoded() = default;
};

// Encoded bytes, immutable once built, plus the message they encode: the
// encoder stores the message it wrote in `decoded`, and every receiver (all
// of a multicast fan-out, injected duplicates) reads that same message, so
// no receiver parses. Payloads built from bare bytes carry none. It is the
// byte vector itself, so readers treat it as one. When the last holder lets
// go, its capacity returns to the buffer pool (buffer_pool.h).
struct PayloadBytes : std::vector<uint8_t> {
  explicit PayloadBytes(std::vector<uint8_t> bytes,
                        std::unique_ptr<const Decoded> decoded = nullptr)
      : std::vector<uint8_t>(std::move(bytes)), decoded(std::move(decoded)) {}
  ~PayloadBytes();
  const std::unique_ptr<const Decoded> decoded;
};

using Payload = std::shared_ptr<const PayloadBytes>;

inline Payload make_payload(std::vector<uint8_t> bytes,
                            std::unique_ptr<const Decoded> decoded = nullptr) {
  return std::make_shared<const PayloadBytes>(std::move(bytes),
                                              std::move(decoded));
}

enum class DeliveryKind : uint8_t { kUnicast, kMulticast };

// 56 B: the delivery closure `[this, packet]` then fits sim::Callback's
// inline buffer (a static_assert in transport.cc holds that), so a unicast
// delivery allocates nothing. Mind the padding when adding a field.
struct Packet {
  Address from;
  Address to;               // for multicast: to.host is the receiver
  ChannelId channel = 0;    // multicast only
  DeliveryKind kind = DeliveryKind::kUnicast;
  uint8_t ttl = 0;          // TTL the sender used (multicast only)
  Payload payload;
  size_t wire_bytes = 0;    // payload + header overhead, all fragments
  sim::Time sent_at = 0;

  size_t size() const { return payload ? payload->size() : 0; }
  const uint8_t* data() const { return payload ? payload->data() : nullptr; }
};

}  // namespace tamp::net
