// Common base of the three membership daemons (all-to-all, gossip,
// hierarchical).
//
// A daemon is the per-node actor that maintains the local yellow-page
// directory. It holds the node's own row (what gets announced), the
// MembershipTable (what is known about everyone), and reports each change
// to its view through a listener that only the owning Cluster sets; tests
// and the evaluation harness subscribe through Cluster::set_change_listener
// to record exactly when a node learned of a join or a failure.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "membership/messages.h"
#include "membership/table.h"
#include "membership/types.h"
#include "net/transport.h"
#include "sim/simulation.h"

namespace tamp::protocols {

class MembershipDaemon {
 public:
  MembershipDaemon(sim::Simulation& sim, net::Network& net,
                   membership::NodeId self, membership::EntryData own);
  virtual ~MembershipDaemon() = default;

  MembershipDaemon(const MembershipDaemon&) = delete;
  MembershipDaemon& operator=(const MembershipDaemon&) = delete;

  // Begin participating (join channels, start timers). Idempotent.
  virtual void start() = 0;

  // Halt all activity (timers, sockets). Models killing the daemon process:
  // no goodbye is sent — peers must *detect* the departure (paper Sec 6.4).
  virtual void stop() = 0;

  bool running() const { return running_; }
  membership::NodeId self() const { return self_; }

  const membership::MembershipTable& table() const { return table_; }
  membership::MembershipTable& table() { return table_; }

  // --- what this node announces ------------------------------------------
  const membership::EntryData& own_entry() const { return own_->data(); }
  // Set before start(); a restarted node announces a higher incarnation so
  // peers can tell the new life from the old one.
  void set_incarnation(membership::Incarnation incarnation) {
    edit_own(
        [&](membership::EntryData& own) { own.incarnation = incarnation; });
  }
  void register_service(const std::string& name,
                        const std::vector<int>& partitions,
                        std::map<std::string, std::string> params = {});
  void update_value(const std::string& key, const std::string& value);
  void delete_value(const std::string& key);

  // --- observation hooks ---------------------------------------------------
  // Fired when the local view adds (alive=true) or removes (alive=false) a
  // node. `when` is virtual time. Self-transitions are not reported. Only
  // Cluster sets it (see Cluster::set_change_listener).
  using ChangeListener = std::function<void(membership::NodeId subject,
                                            bool alive, sim::Time when)>;

  // Count of live nodes in this node's view (including itself).
  size_t view_size() const { return table_.size(); }

 protected:
  // Install own entry into the table (each directory includes the local
  // node) and flip running_. Subclasses call from start()/stop().
  void base_start();
  void base_stop();

  void notify(membership::NodeId subject, bool alive);
  // Apply `edit` to a copy of the own entry, rebuild the row, and re-apply
  // it to the table.
  template <typename Edit>
  void edit_own(Edit edit) {
    membership::EntryData own = own_->data();
    edit(own);
    own_ = membership::make_row(std::move(own));
    own_entry_changed();
  }
  // Re-apply own entry to the table after a local mutation.
  void own_entry_changed();

  sim::Simulation& sim_;
  net::Network& net_;
  membership::NodeId self_;
  membership::RowRef own_;
  membership::MembershipTable table_;
  bool running_ = false;

 private:
  friend class Cluster;  // Cluster::make_daemon sets listener_
  ChangeListener listener_;
};

}  // namespace tamp::protocols
