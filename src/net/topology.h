// Simulated physical network: hosts, L2 switches, and routers joined by
// links with latency / bandwidth / loss.
//
// The property the membership protocol exploits is IP TTL scoping: a packet
// sent with TTL value `t` is forwarded across at most `t - 1` routers (each
// router decrements the TTL and discards it at zero; L2 switches do not
// touch it). `ttl_required(a, b)` is therefore 1 + the number of routers on
// the a→b path: 1 for two hosts on the same L2 segment, 2 across one
// router, and so on — exactly the distance measure of Section 3.1.
//
// Constraint: every host has exactly one uplink (single-homed), which is
// how cluster hosts are racked in the paper's environment. This lets us do
// all-pairs routing among the (few) infrastructure devices only and answer
// host-pair queries in O(1), which keeps 4000-host simulations fast.
// The invariant is enforced loudly (fatal, naming the host) at connect()
// time; host migration rewires the existing uplink instead of adding one.
//
// The topology is mutable at runtime: devices can be added, links added or
// flapped, whole routers/switches crashed and recovered (all incident links
// down/up atomically), and hosts migrated between segments. Every mutation
// bumps epoch() and invalidates the compiled routing state, which is
// rebuilt lazily on the next query — callers that cache ttl_required() or
// max_ttl() answers watch the epoch to learn they went stale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ids.h"
#include "sim/time.h"

namespace tamp::net {

enum class DeviceKind : uint8_t { kHost, kL2Switch, kRouter };

struct Device {
  DeviceId id = kInvalidDevice;
  DeviceKind kind = DeviceKind::kHost;
  std::string name;
  DatacenterId dc = 0;
  // Infrastructure power state (routers/switches; see set_device_up). Host
  // up/down lives in the Network, not here: a host with its daemon stopped
  // still occupies its port.
  bool up = true;
};

struct LinkParams {
  sim::Duration latency = 50 * sim::kMicrosecond;  // one-way propagation
  double bandwidth_bps = 100e6;                    // Fast Ethernet default
  double loss = 0.0;                               // per-packet loss prob
};

struct Link {
  LinkId id = 0;
  DeviceId a = kInvalidDevice;
  DeviceId b = kInvalidDevice;
  LinkParams params;
  bool up = true;
};

// Aggregate properties of the routed path between two hosts.
struct PathInfo {
  bool reachable = false;
  int router_hops = 0;          // routers traversed
  sim::Duration latency = 0;    // sum of link latencies
  double min_bandwidth_bps = 0; // bottleneck link
  double survival = 1.0;        // prod(1 - loss) over links
};

class Topology {
 public:
  // --- construction ---------------------------------------------------
  HostId add_host(const std::string& name, DatacenterId dc = 0);
  DeviceId add_l2_switch(const std::string& name, DatacenterId dc = 0);
  DeviceId add_router(const std::string& name, DatacenterId dc = 0);
  LinkId connect(DeviceId a, DeviceId b, const LinkParams& params = {});

  // Take a link administratively down/up (switch failure, WAN cut). Routing
  // is recomputed lazily on the next query.
  void set_link_up(LinkId link, bool up);

  // --- runtime mutation -------------------------------------------------
  // Crash / recover an infrastructure device (router or switch): all its
  // incident links go down/up *atomically* — no query can observe a
  // half-crashed router, because routing recompiles only after the flag
  // flips. Links keep their own administrative state: a link that was
  // admin-down before the crash stays down after recovery. Fatal on hosts.
  void set_device_up(DeviceId device, bool up);
  bool device_up(DeviceId device) const;

  // Re-home `host` onto a different access device (rack move / VLAN
  // renumbering). The existing uplink is rewired in place — its LinkId and
  // administrative state survive, so fault plans holding uplink_of(host)
  // stay valid — preserving the single-homed invariant by construction.
  // `params`, when non-null, replaces the link's latency/bandwidth/loss.
  void migrate_host(HostId host, DeviceId new_attach,
                    const LinkParams* params = nullptr);

  // Monotone counter bumped by every mutation that can change routing
  // answers (device/link addition, link or device state, migration).
  // Callers that derive state from ttl_required()/max_ttl() — the
  // hierarchical daemons' group scopes above all — poll this to detect
  // that their cached distance structure went stale.
  uint64_t epoch() const { return epoch_; }

  // --- queries ----------------------------------------------------------
  size_t device_count() const { return devices_.size(); }
  const std::vector<HostId>& hosts() const { return hosts_; }
  const Device& device(DeviceId id) const;
  const Link& link(LinkId id) const;
  bool is_host(DeviceId id) const;
  DatacenterId datacenter_of(HostId host) const;

  // Hosts belonging to one datacenter.
  std::vector<HostId> hosts_in_datacenter(DatacenterId dc) const;

  // Path between two *hosts* (a == b gives a zero-length reachable path).
  PathInfo path(HostId a, HostId b) const;

  // TTL value needed for a packet from `a` to reach `b`
  // (= router_hops + 1); 0 if unreachable or a == b.
  int ttl_required(HostId a, HostId b) const;

  // Largest ttl_required over all reachable host pairs — the natural
  // MAX_TTL setting for the hierarchical protocol on this topology.
  int max_ttl() const;

  // The (single) access link attaching `host` to the infrastructure — the
  // hook fault plans use to unplug one machine's NIC cable. The single-homed
  // invariant is mutable at runtime (migration rewires it, connect() could
  // violate it), so a host found with != 1 uplink is a documented fatal
  // that names the offending host rather than a silent assumption.
  LinkId uplink_of(HostId host) const;

 private:
  void compile() const;  // (re)build routing state; const because lazy
  const PathInfo& infra_path(DeviceId a, DeviceId b) const;
  static void accumulate(PathInfo& acc, const LinkParams& link);
  // A link carries traffic iff it is admin-up and both endpoint devices are
  // powered — this is what makes a device crash take every incident link
  // down atomically.
  bool link_live(const Link& link) const {
    return link.up && devices_[link.a].up && devices_[link.b].up;
  }
  void mutated() {
    compiled_ = false;
    ++epoch_;
  }

  std::vector<Device> devices_;
  std::vector<Link> links_;
  std::vector<HostId> hosts_;
  std::vector<std::vector<LinkId>> adjacency_;  // per device
  uint64_t epoch_ = 0;

  // Compiled routing state (lazy).
  mutable bool compiled_ = false;
  mutable std::vector<LinkId> host_uplink_;          // per device (hosts only)
  mutable std::vector<DeviceId> host_attach_;        // access device per host
  mutable std::vector<DeviceId> infra_index_;        // device -> dense index
  mutable std::vector<DeviceId> infra_devices_;      // dense index -> device
  mutable std::vector<PathInfo> infra_matrix_;       // dense n x n
};

}  // namespace tamp::net
