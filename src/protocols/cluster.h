// Fleet helper: builds and drives a whole cluster of membership daemons of
// one flavor over a topology. Used by integration tests, examples, and the
// evaluation harness (Figures 11-13).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "membership/codec.h"
#include "protocols/alltoall.h"
#include "protocols/gossip.h"
#include "protocols/hier.h"

namespace tamp::protocols {

enum class Scheme { kAllToAll, kGossip, kHierarchical };

const char* scheme_name(Scheme scheme);

// Owns one daemon per host. Construction does not start them.
class Cluster {
 public:
  struct Options {
    Scheme scheme = Scheme::kHierarchical;
    AllToAllConfig alltoall;
    HierConfig hier;
    // Pad per-node heartbeat info to this size (0 = natural). Applied to
    // the all-to-all and hierarchical heartbeat payloads; gossip messages
    // scale with view size by construction.
    size_t heartbeat_pad = 0;
  };

  // Fired when the view of the daemon at index `observer` adds
  // (alive=true) or removes (alive=false) `subject`. `when` is virtual time.
  using ChangeListener =
      std::function<void(size_t observer, membership::NodeId subject,
                         bool alive, sim::Time when)>;

  Cluster(sim::Simulation& sim, net::Network& net,
          const std::vector<net::HostId>& hosts, Options options);
  // Each daemon's listener forwards to this object.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start_all();
  void stop_all();

  size_t size() const { return daemons_.size(); }
  const Options& options() const { return options_; }
  MembershipDaemon& daemon(size_t index) { return *daemons_[index]; }
  // True if the daemon at `index` has not been kill()ed (restart revives).
  bool alive(size_t index) const { return alive_[index]; }
  membership::Incarnation incarnation(size_t index) const {
    return incarnations_[index];
  }
  MembershipDaemon* daemon_for(net::HostId host);
  HierDaemon* hier_daemon(size_t index);
  const std::vector<net::HostId>& hosts() const { return hosts_; }

  // Kill the daemon at `index` (stop + host down): the paper's failure
  // injection. `host_too` false models killing only the daemon process.
  void kill(size_t index, bool host_too = true);

  // Restart a previously killed node with a bumped incarnation.
  void restart(size_t index);

  // True when every *running* daemon's view contains exactly the running
  // node set.
  bool converged() const;
  // Number of running daemons whose view is exactly the running node set.
  size_t converged_count() const;
  // Ids of running daemons.
  std::vector<size_t> running_indices() const;

  // The one view-change subscription: it hears every daemon, including each
  // fresh one that restart() builds, and replaces any earlier listener.
  // Changes made before it is set go unreported.
  void set_change_listener(ChangeListener listener);
  // For listeners that do not need to know the observer.
  void set_change_listener(MembershipDaemon::ChangeListener listener);

 private:
  std::unique_ptr<MembershipDaemon> make_daemon(size_t index);
  void seed_gossip(size_t index);

  sim::Simulation& sim_;
  net::Network& net_;
  std::vector<net::HostId> hosts_;
  Options options_;
  std::vector<std::unique_ptr<MembershipDaemon>> daemons_;
  std::vector<membership::Incarnation> incarnations_;
  std::vector<bool> alive_;
  ChangeListener listener_;
};

}  // namespace tamp::protocols
