// Datagram transport over a Topology: lossy unreliable unicast (UDP-like)
// and TTL-scoped multicast, plus virtual-IP indirection for the proxy
// protocol's IP failover.
//
// Delivery semantics:
//  * A multicast packet sent on (channel, ttl) reaches every live host that
//    joined `channel` and is within `ttl` router-hops of the sender — the
//    scoping trick the whole hierarchical protocol is built on.
//  * Messages larger than the MTU fragment; the message is lost if any
//    fragment is lost (IP fragmentation semantics), and bandwidth is charged
//    per fragment.
//  * Per-host and global byte/packet counters feed the bandwidth figures.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ids.h"
#include "net/packet.h"
#include "net/topology.h"
#include "obs/obs.h"
#include "sim/simulation.h"

namespace tamp::net {

inline constexpr size_t kMtu = 1500;  // bytes of payload per fragment (IP)
// Per-fragment header bytes: Ethernet (18) + IP (20) + UDP (8).
inline constexpr size_t kPerFragmentOverhead = 46;
inline constexpr sim::Duration kMinDeliveryDelay = 5 * sim::kMicrosecond;

struct NetworkConfig {
  double extra_loss = 0.0;  // loss injected on top of link loss
  // Per-host egress capacity model. A host's NIC serializes packets at
  // `egress_bytes_per_sec`; packets queue behind earlier ones (virtual-time
  // token accounting, no per-packet RNG) and a packet that would push the
  // queued backlog past `egress_queue_bytes` is dropped deterministically
  // at the sender — the saturation behavior recovery storms run into on
  // real NICs. 0 disables the rate (and with it the whole model); 0 for the
  // queue bound means rate-limited but never dropped.
  double egress_bytes_per_sec = 0.0;
  size_t egress_queue_bytes = 0;
};

// Fault-injection hook, consulted once for every datagram towards every
// receiver. The full packet is exposed so injectors can target by endpoint
// pair (directional by construction — a verdict for (a, b) says nothing
// about (b, a), which is what lets a FaultPlan express asymmetric
// partitions) or by content (e.g. drop exactly the first SyncResponse, for
// deterministic protocol-level loss tests). All randomness implied by a
// verdict (loss, jitter) is drawn from the simulation RNG, so injected
// chaos stays deterministic per seed.
class FaultInjector {
 public:
  struct Verdict {
    bool cut = false;               // directional blackhole: drop outright
    double extra_loss = 0.0;        // additional per-fragment loss prob
    sim::Duration extra_delay = 0;  // fixed added delivery latency
    sim::Duration jitter = 0;       // uniform extra delay in [0, jitter)
    int duplicates = 0;             // extra copies delivered (dup storm)
  };
  virtual ~FaultInjector() = default;
  virtual Verdict verdict(const Packet& packet) = 0;
};

class Network {
 public:
  using RecvCallback = std::function<void(const Packet&)>;

  Network(sim::Simulation& sim, Topology& topology, NetworkConfig config = {});

  sim::Simulation& sim() { return sim_; }
  Topology& topology() { return topology_; }
  const NetworkConfig& config() const { return config_; }
  void set_extra_loss(double p) { config_.extra_loss = p; }

  // --- sockets ---------------------------------------------------------
  void bind(HostId host, Port port, RecvCallback callback);
  void unbind(HostId host, Port port);

  // --- multicast membership ---------------------------------------------
  void join_group(HostId host, ChannelId channel);
  void leave_group(HostId host, ChannelId channel);
  bool in_group(HostId host, ChannelId channel) const;

  // --- sending -----------------------------------------------------------
  // Both sends share one path: admission at the sender's NIC, then the same
  // per-receiver loss/delay decision. They return false only if the sender
  // is down (nothing sent); a packet shed at a full egress queue, or sent
  // towards an unreachable host, still returns true, as a UDP send would.
  bool send_unicast(HostId from, Address to, Payload payload);
  bool send_multicast(HostId from, ChannelId channel, uint8_t ttl, Port port,
                      Payload payload);

  // --- virtual IPs ---------------------------------------------------------
  VirtualIpId allocate_virtual_ip();
  // Reassign ownership (kInvalidHost releases it).
  void assign_virtual_ip(VirtualIpId vip, HostId owner);
  HostId virtual_ip_owner(VirtualIpId vip) const;
  bool send_to_virtual(HostId from, VirtualIpId vip, Port port,
                       Payload payload);

  // --- failure injection ----------------------------------------------------
  // A down host neither sends nor receives; its sockets and group
  // memberships are preserved and resume when it comes back up.
  void set_host_up(HostId host, bool up);
  bool host_up(HostId host) const;

  // Install a fault injector consulted on every (sender, receiver) delivery
  // attempt. Not owned; nullptr clears. With no injector installed the send
  // paths draw exactly the same RNG sequence as before the hook existed.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // --- observability ----------------------------------------------------
  // The network owns the process-wide observability pair: every daemon,
  // bench, and test already holds a Network&, so this is the one place the
  // registry and tracer can live without threading them through every
  // constructor in the tree.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  // Install the metric-name suffixes for per-wire-kind tx / egress-drop
  // attribution. net/ cannot name the membership layer's message types, so
  // whoever owns both layers (Cluster, MService) installs them. A payload's
  // `kind` indexes `names`; kind 0 is "unknown", and a kind past the end
  // counts as 0. Idempotent; replacing installed names with the same names
  // is a no-op in effect.
  void set_wire_kind_names(std::vector<std::string> names);

 private:
  // Cached registry handles for one accounting scope (a host, or the
  // network-wide totals under obs::kNoNode).
  struct TrafficCounters {
    obs::Counter* tx_messages = nullptr;
    obs::Counter* tx_wire_bytes = nullptr;
    obs::Counter* rx_messages = nullptr;
    obs::Counter* rx_wire_bytes = nullptr;
    obs::Counter* rx_multicast_messages = nullptr;
    obs::Counter* dropped_messages = nullptr;
    obs::Counter* tx_dropped_egress = nullptr;
  };

  struct HostState {
    bool up = true;
    std::unordered_map<Port, RecvCallback> sockets;
    // Joined channels, sorted: a handful (one per hierarchy level), probed
    // on every multicast delivery.
    std::vector<ChannelId> groups;
    TrafficCounters counters;
    // Virtual time at which this host's NIC finishes serializing everything
    // already accepted for egress; the queue backlog is (free_at - now) in
    // bytes at the configured rate.
    sim::Time egress_free_at = 0;
  };

  // Per-channel membership index so multicast fan-out touches only the
  // subscribed hosts (a 4000-node cluster has thousands of hosts but each
  // hierarchical channel only ~20 members).
  std::unordered_map<ChannelId, std::vector<HostId>> channel_members_;

  // Multicast receiver sets: the members of a channel within `ttl` of a
  // sender, with their paths, in channel-member order — what a fan-out
  // would otherwise recompute from every member's Topology::path on every
  // send. Keyed by channel, then by (ttl, sender); a channel's sets are
  // dropped on any join or leave, and all of them when the topology epoch
  // moves.
  struct ScopedReceiver {
    HostId host = kInvalidHost;
    PathInfo path;
  };
  using ReceiverSets =
      std::unordered_map<uint64_t, std::vector<ScopedReceiver>>;
  std::unordered_map<ChannelId, ReceiverSets> receiver_sets_;
  uint64_t receiver_sets_epoch_ = 0;
  const std::vector<ScopedReceiver>& receivers_in_scope(HostId from,
                                                        ChannelId channel,
                                                        uint8_t ttl);

  size_t wire_bytes_for(size_t payload_size) const;
  size_t fragments_for(size_t payload_size) const;
  TrafficCounters resolve_counters(obs::NodeId node);
  uint8_t kind_of(const Payload& payload) const;
  // Applies path loss (per fragment) + configured extra loss + any
  // injector-imposed loss; true if delivered.
  bool survives(const PathInfo& path, size_t fragments, double injected_loss);
  // The once-per-transmission half of both sends (a multicast is one NIC
  // send, whatever its fan-out). kDown: the sender is down, counted under
  // tx_down_kind_ only. kDropped: the packet exceeds the sender's NIC queue
  // and is shed deterministically (no RNG draw), counted as an egress drop
  // and traced. kSent: the tx counters are charged and `egress_delay` is
  // the serialization/queueing delay every receiver's delivery carries.
  enum class Admission { kDown, kDropped, kSent };
  Admission admit(HostId from, const Payload& payload, size_t wire,
                  sim::Duration& egress_delay);
  // The per-receiver half, the same for unicast and every multicast
  // receiver: injector verdict, then per-fragment loss (a drop is charged
  // to the receiver), then one jittered `schedule(delay)` per copy. The
  // traces `tools/chaos_grid.sha256` pins depend on this RNG draw order.
  template <typename Schedule>
  void route(const Packet& packet, const PathInfo& path, size_t fragments,
             sim::Duration egress_delay, Schedule&& schedule);
  void deliver(const Packet& packet);

  sim::Simulation& sim_;
  Topology& topology_;
  NetworkConfig config_;
  obs::Observability obs_;
  std::vector<HostState> hosts_;
  std::vector<HostId> virtual_ips_;
  FaultInjector* injector_ = nullptr;
  TrafficCounters total_;
  // Per-kind totals, indexed by wire kind (satellite attribution for
  // the egress capacity model: *what* was shed, not just how much).
  // tx_bytes_kind_ decomposes tx_wire_bytes the way tx_kind_ decomposes
  // tx_messages — named with a distinct prefix so counter_prefix_sum over
  // "tx_kind_" keeps summing message counts only.
  std::vector<obs::Counter*> tx_kind_;
  std::vector<obs::Counter*> tx_bytes_kind_;
  std::vector<obs::Counter*> egress_drop_kind_;
  std::vector<obs::Counter*> tx_down_kind_;
};

}  // namespace tamp::net
