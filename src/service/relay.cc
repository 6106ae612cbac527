#include "service/relay.h"

#include "util/check.h"

namespace tamp::service {

ProxyRelay::ProxyRelay(sim::Simulation& sim, net::Network& net,
                       proxy::ProxyDaemon& proxy, ServiceConsumer& consumer)
    : sim_(sim), net_(net), proxy_(proxy), consumer_(consumer) {
  // The relay's local consumer must never fall back to the proxy itself,
  // or a stale summary could bounce a request between datacenters forever.
  TAMP_CHECK(!consumer_.config().proxy_fallback);
}

ProxyRelay::~ProxyRelay() { stop(); }

void ProxyRelay::start() {
  if (running_) return;
  running_ = true;
  net_.bind(self(), kProxyRelayPort,
            [this](const net::Packet& p) { on_packet(p); });
}

void ProxyRelay::stop() {
  if (!running_) return;
  for (auto& [id, relay] : handshakes_) sim_.cancel(relay.handshake_timer);
  handshakes_.clear();
  forwarded_.clear();
  net_.unbind(self(), kProxyRelayPort);
  running_ = false;
}

void ProxyRelay::reject(const RequestMsg& request, ResponseStatus status) {
  ResponseMsg response;
  response.request_id = request.request_id;
  response.from = self();
  response.status = status;
  net_.send_unicast(self(),
                    net::Address{request.reply_host, request.reply_port},
                    encode_service_message(response));
}

void ProxyRelay::on_packet(const net::Packet& packet) {
  auto message = decode_service_message(packet);
  if (!message) return;

  if (auto* request = std::get_if<RequestMsg>(&*message)) {
    if (request->relay_hops > 0) {
      handle_local_request(*request);
    } else {
      handle_remote_request(*request);
    }
    return;
  }

  if (auto* syn = std::get_if<RelaySynMsg>(&*message)) {
    RelayAckMsg ack;
    ack.conn_id = syn->conn_id;
    ack.from = self();
    net_.send_unicast(self(), net::Address{syn->from, kProxyRelayPort},
                      encode_service_message(ack));
    return;
  }

  if (auto* ack = std::get_if<RelayAckMsg>(&*message)) {
    auto it = handshakes_.find(ack->conn_id);
    if (it == handshakes_.end()) return;
    OutboundRelay relay = std::move(it->second);
    sim_.cancel(relay.handshake_timer);
    handshakes_.erase(it);

    // Connection is up: ship the request with ourselves as the reply hop.
    RequestMsg forwarded = relay.original;
    forwarded.relay_hops = relay.original.relay_hops - 1;
    forwarded.reply_host = self();
    forwarded.reply_port = kProxyRelayPort;
    forwarded_[forwarded.request_id] =
        net::Address{relay.original.reply_host, relay.original.reply_port};
    net_.send_to_virtual(self(), relay.remote_vip, kProxyRelayPort,
                         encode_service_message(forwarded));
    return;
  }

  if (auto* response = std::get_if<ResponseMsg>(&*message)) {
    // A remote datacenter finished a request we forwarded: relay the
    // result to the original caller (Fig. 6 steps 5-6).
    auto it = forwarded_.find(response->request_id);
    if (it == forwarded_.end()) return;
    net::Address original = it->second;
    forwarded_.erase(it);
    net_.send_unicast(self(), original, encode_service_message(*response));
    return;
  }
}

void ProxyRelay::handle_local_request(const RequestMsg& request) {
  auto remote_dcs =
      proxy_.lookup_remote(request.service, request.partition);
  if (remote_dcs.empty()) {
    reject(request, ResponseStatus::kUnavailable);
    return;
  }
  net::DatacenterId dc =
      remote_dcs[sim_.rng().uniform_u64(remote_dcs.size())];
  auto vip = proxy_.config().remote_vips.find(dc);
  if (vip == proxy_.config().remote_vips.end()) {
    reject(request, ResponseStatus::kUnavailable);
    return;
  }

  OutboundRelay relay;
  relay.original = request;
  relay.remote_vip = vip->second;
  uint64_t conn_id = request.request_id;
  relay.handshake_timer =
      sim_.schedule_after(kRelayHandshakeTimeout, [this, conn_id] {
        auto it = handshakes_.find(conn_id);
        if (it == handshakes_.end()) return;
        RequestMsg original = it->second.original;
        handshakes_.erase(it);
        reject(original, ResponseStatus::kUnavailable);
      });
  handshakes_.emplace(conn_id, std::move(relay));

  RelaySynMsg syn;
  syn.conn_id = conn_id;
  syn.from = self();
  net_.send_to_virtual(self(), vip->second, kProxyRelayPort,
                       encode_service_message(syn));
}

void ProxyRelay::handle_remote_request(const RequestMsg& request) {
  net::Address reply{request.reply_host, request.reply_port};
  uint64_t id = request.request_id;
  uint32_t response_bytes = request.response_bytes;
  consumer_.invoke(
      request.service, request.partition, request.request_bytes,
      request.response_bytes,
      [this, id, reply, response_bytes](const InvokeResult& result) {
        ResponseMsg response;
        response.request_id = id;
        response.from = self();
        response.status = to_response_status(result.cause);
        response.payload_bytes = result.ok() ? response_bytes : 0;
        net_.send_unicast(self(), reply, encode_service_message(response));
      });
}

}  // namespace tamp::service
