#include "protocols/cluster.h"

#include <algorithm>
#include <utility>

#include "membership/messages.h"
#include "util/check.h"

namespace tamp::protocols {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kAllToAll:
      return "all-to-all";
    case Scheme::kGossip:
      return "gossip";
    case Scheme::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

Cluster::Cluster(sim::Simulation& sim, net::Network& net,
                 const std::vector<net::HostId>& hosts, Options options)
    : sim_(sim), net_(net), hosts_(hosts), options_(options) {
  TAMP_CHECK(!hosts_.empty());
  // Per-wire-kind transport attribution (idempotent across clusters).
  membership::install_wire_kind_names(net_);
  if (options_.heartbeat_pad > 0) {
    options_.alltoall.heartbeat_pad = options_.heartbeat_pad;
    options_.hier.heartbeat_pad = options_.heartbeat_pad;
  }
  incarnations_.assign(hosts_.size(), 1);
  alive_.assign(hosts_.size(), true);
  daemons_.reserve(hosts_.size());
  for (size_t i = 0; i < hosts_.size(); ++i) daemons_.push_back(make_daemon(i));

  if (options_.scheme == Scheme::kGossip && hosts_.size() > 1) {
    for (size_t i = 0; i < daemons_.size(); ++i) seed_gossip(i);
  }
}

void Cluster::seed_gossip(size_t index) {
  // Seed a gossip daemon with a few peers so views can fill in.
  auto* gossip = static_cast<GossipDaemon*>(daemons_[index].get());
  for (int s = 1; s <= kGossipSeeds; ++s) {
    size_t peer = (index + static_cast<size_t>(s)) % daemons_.size();
    if (peer == index) continue;
    gossip->add_seed(membership::make_representative_entry(hosts_[peer], 1));
  }
}

std::unique_ptr<MembershipDaemon> Cluster::make_daemon(size_t index) {
  const net::HostId host = hosts_[index];
  auto entry = membership::make_representative_entry(host, 1);
  std::unique_ptr<MembershipDaemon> daemon;
  switch (options_.scheme) {
    case Scheme::kAllToAll:
      daemon = std::make_unique<AllToAllDaemon>(sim_, net_, host,
                                                std::move(entry),
                                                options_.alltoall);
      break;
    case Scheme::kGossip:
      daemon = std::make_unique<GossipDaemon>(sim_, net_, host,
                                              std::move(entry));
      break;
    case Scheme::kHierarchical:
      daemon = std::make_unique<HierDaemon>(sim_, net_, host, std::move(entry),
                                            options_.hier);
      break;
  }
  TAMP_CHECK_MSG(daemon != nullptr, "unknown scheme");
  daemon->listener_ = [this, index](membership::NodeId subject, bool alive,
                                    sim::Time when) {
    if (listener_) listener_(index, subject, alive, when);
  };
  return daemon;
}

void Cluster::start_all() {
  for (auto& daemon : daemons_) daemon->start();
}

void Cluster::stop_all() {
  for (auto& daemon : daemons_) daemon->stop();
}

MembershipDaemon* Cluster::daemon_for(net::HostId host) {
  auto it = std::find(hosts_.begin(), hosts_.end(), host);
  if (it == hosts_.end()) return nullptr;
  return daemons_[static_cast<size_t>(it - hosts_.begin())].get();
}

HierDaemon* Cluster::hier_daemon(size_t index) {
  if (options_.scheme != Scheme::kHierarchical) return nullptr;
  return static_cast<HierDaemon*>(daemons_[index].get());
}

void Cluster::kill(size_t index, bool host_too) {
  TAMP_CHECK(index < daemons_.size());
  daemons_[index]->stop();
  if (host_too) net_.set_host_up(hosts_[index], false);
  alive_[index] = false;
}

void Cluster::restart(size_t index) {
  TAMP_CHECK(index < daemons_.size());
  net_.set_host_up(hosts_[index], true);
  ++incarnations_[index];
  // Fresh daemon instance: a restarted process has no memory of its past.
  daemons_[index] = make_daemon(index);
  daemons_[index]->set_incarnation(incarnations_[index]);
  if (options_.scheme == Scheme::kGossip && hosts_.size() > 1) {
    seed_gossip(index);
  }
  alive_[index] = true;
  daemons_[index]->start();
}

std::vector<size_t> Cluster::running_indices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < daemons_.size(); ++i) {
    if (alive_[i]) out.push_back(i);
  }
  return out;
}

size_t Cluster::converged_count() const {
  std::vector<net::HostId> expected;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    if (alive_[i]) expected.push_back(hosts_[i]);
  }
  std::sort(expected.begin(), expected.end());

  size_t count = 0;
  for (size_t i = 0; i < daemons_.size(); ++i) {
    if (!alive_[i]) continue;
    const auto& view = daemons_[i]->table().entries();  // in id order
    if (view.size() == expected.size() &&
        std::equal(view.begin(), view.end(), expected.begin(),
                   [](const auto& row, net::HostId id) {
                     return row.first == id;
                   })) {
      ++count;
    }
  }
  return count;
}

bool Cluster::converged() const {
  return converged_count() == running_indices().size();
}

void Cluster::set_change_listener(ChangeListener listener) {
  listener_ = std::move(listener);
}

void Cluster::set_change_listener(MembershipDaemon::ChangeListener listener) {
  listener_ = [listener = std::move(listener)](
                  size_t, membership::NodeId subject, bool alive,
                  sim::Time when) { listener(subject, alive, when); };
}

}  // namespace tamp::protocols
