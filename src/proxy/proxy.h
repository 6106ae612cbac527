// Membership proxy protocol (paper Section 3.2): cross-datacenter
// membership exchange and the plumbing for cross-DC service invocation.
//
// Each datacenter runs several proxies. Every proxy is an ordinary cluster
// node (it runs the hierarchical membership daemon and registers the
// "membership-proxy" service, so the whole cluster can find proxies through
// the normal yellow pages). Among the live proxies the one with the lowest
// node id acts as the *proxy leader* — the same lowest-id-wins rule as the
// bully election, decided here against the shared membership view every
// node already converges on.
//
// The leader:
//  * holds the datacenter's external virtual IP (IP failover: when the
//    leader dies, the next proxy claims the VIP, so remote datacenters keep
//    using one stable address — paper Fig. 6),
//  * periodically unicasts a ProxyHeartbeat carrying a compact *service
//    availability summary* of the local datacenter to every remote DC's
//    VIP (summaries omit per-machine details, exactly as the paper
//    prescribes; large summaries fragment at the transport),
//  * sends the same message at once whenever the local summary changes
//    (the paper's Update Message),
//  * relays everything it learns about remote DCs to the local proxy group
//    over a reserved multicast channel, so backup proxies can take over
//    with warm state.
#pragma once

#include <map>
#include <optional>

#include "membership/messages.h"
#include "obs/obs.h"
#include "protocols/hier.h"
#include "protocols/ports.h"
#include "sim/timer.h"

namespace tamp::proxy {

inline constexpr char kProxyServiceName[] = "membership-proxy";
// A remote datacenter silent for 2 * kProxyMaxLosses WAN periods is dropped.
inline constexpr int kProxyMaxLosses = 5;
// TTL of the local proxy group's relay multicast; must span the local DC.
inline constexpr uint8_t kProxyChannelTtl = 8;

struct ProxyConfig {
  net::DatacenterId dc = 0;
  net::VirtualIpId local_vip = net::kInvalidVirtualIp;
  // Remote datacenters: dc id -> that DC's virtual IP.
  std::map<net::DatacenterId, net::VirtualIpId> remote_vips;
  sim::Duration period = sim::kSecond;   // WAN heartbeat period
  net::ChannelId proxy_channel = protocols::kProxyChannelBase;
};

// Knowledge about one remote datacenter.
struct RemoteDirectory {
  membership::ServiceSummary summary;
  sim::Time last_heard = 0;
  uint64_t last_seq = 0;
};

class ProxyDaemon {
 public:
  // `membership` is this node's cluster membership daemon (not owned). The
  // proxy registers the proxy service on it at start().
  ProxyDaemon(sim::Simulation& sim, net::Network& net,
              protocols::HierDaemon& membership, ProxyConfig config);
  ~ProxyDaemon();

  ProxyDaemon(const ProxyDaemon&) = delete;
  ProxyDaemon& operator=(const ProxyDaemon&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  membership::NodeId self() const { return membership_.self(); }
  const ProxyConfig& config() const { return config_; }

  // True when this proxy currently believes it is the datacenter's proxy
  // leader (and therefore holds the VIP).
  bool is_leader() const { return is_leader_; }

  // Remote state (either received directly as leader, or relayed by the
  // leader over the proxy channel).
  const std::map<net::DatacenterId, RemoteDirectory>& remote() const {
    return remote_;
  }

  // Which remote datacenters currently advertise at least one provider for
  // (service, partition)? Sorted by dc id.
  std::vector<net::DatacenterId> lookup_remote(const std::string& service,
                                               int partition) const;

 private:
  void tick();
  void recompute_summary(bool push_update);
  membership::ServiceSummary build_summary() const;
  void evaluate_leadership();
  // Unicasts the local summary to every remote datacenter's VIP; only the
  // counter it bumps tells a periodic heartbeat from a change-driven update.
  void send_summary(bool is_update);
  void on_wan_packet(const net::Packet& packet);
  void on_proxy_channel_packet(const net::Packet& packet);
  void ingest_remote(net::DatacenterId dc, uint64_t seq,
                     const membership::ServiceSummary& summary,
                     bool relay_locally);
  void expire_remotes();
  void resolve_metrics();

  // Registry handles under (obs::Protocol::kProxy, <name>, self).
  struct Metrics {
    obs::Counter* wan_heartbeats_sent = nullptr;
    obs::Counter* wan_updates_sent = nullptr;
    obs::Counter* wan_messages_received = nullptr;
    obs::Counter* vip_takeovers = nullptr;
    obs::Counter* relays_to_local_group = nullptr;
    obs::Gauge* is_leader = nullptr;  // 1.0 while holding the VIP
  };

  sim::Simulation& sim_;
  net::Network& net_;
  protocols::HierDaemon& membership_;
  ProxyConfig config_;
  sim::PeriodicTimer tick_timer_;
  bool running_ = false;
  bool is_leader_ = false;
  uint64_t seq_ = 0;
  // The availability summary of the local datacenter, as last computed.
  membership::ServiceSummary local_summary_;
  std::map<net::DatacenterId, RemoteDirectory> remote_;
  Metrics metrics_;
};

}  // namespace tamp::proxy
