// Cross-datacenter service invocation relay — the service-plane half of the
// membership proxy (paper Fig. 6):
//
//   (1) a consumer that found no local provider sends the request to a
//       local proxy;  (2) the proxy consults its remote availability
//   summaries and opens a connection to the chosen remote DC's virtual IP
//   (SYN/ACK handshake over the WAN, as a 2005 TCP stack would);  (3) the
//   remote proxy invokes the service through its own local consumer;
//   (4, 5) the response retraces the proxy pair;  (6) back to the caller.
//
// A request arriving with relay_hops == 0 must be served locally — stale
// summaries can never cause requests to ping-pong between datacenters.
#pragma once

#include <map>

#include "proxy/proxy.h"
#include "service/consumer.h"

namespace tamp::service {

// How long an outbound relay waits for the remote proxy's RelayAck before
// the request is rejected as unavailable.
inline constexpr sim::Duration kRelayHandshakeTimeout = 500 * sim::kMillisecond;

class ProxyRelay {
 public:
  // `proxy` supplies remote availability; `consumer` executes requests
  // locally on behalf of remote datacenters. Neither is owned.
  ProxyRelay(sim::Simulation& sim, net::Network& net, proxy::ProxyDaemon& proxy,
             ServiceConsumer& consumer);
  ~ProxyRelay();

  ProxyRelay(const ProxyRelay&) = delete;
  ProxyRelay& operator=(const ProxyRelay&) = delete;

  void start();
  void stop();

  net::HostId self() const { return proxy_.self(); }

 private:
  struct OutboundRelay {
    RequestMsg original;           // as received from the local consumer
    net::VirtualIpId remote_vip = net::kInvalidVirtualIp;
    sim::EventId handshake_timer = sim::kInvalidEventId;
  };

  void on_packet(const net::Packet& packet);
  void handle_local_request(const RequestMsg& request);
  void handle_remote_request(const RequestMsg& request);
  void reject(const RequestMsg& request, ResponseStatus status);

  sim::Simulation& sim_;
  net::Network& net_;
  proxy::ProxyDaemon& proxy_;
  ServiceConsumer& consumer_;
  bool running_ = false;
  // conn_id (== request id) -> half-open outbound relay awaiting RelayAck.
  std::map<uint64_t, OutboundRelay> handshakes_;
  // request id -> reply address of the original requester.
  std::map<uint64_t, net::Address> forwarded_;
};

}  // namespace tamp::service
