#include "protocols/daemon.h"

#include <algorithm>

namespace tamp::protocols {

MembershipDaemon::MembershipDaemon(sim::Simulation& sim, net::Network& net,
                                   membership::NodeId self,
                                   membership::EntryData own)
    : sim_(sim), net_(net), self_(self) {
  own.node = self_;
  own_ = membership::make_row(std::move(own));
}

void MembershipDaemon::base_start() {
  running_ = true;
  table_.apply(own_, membership::Liveness::kDirect, membership::kInvalidNode,
               sim_.now());
}

void MembershipDaemon::base_stop() { running_ = false; }

void MembershipDaemon::notify(membership::NodeId subject, bool alive) {
  if (subject == self_) return;
  if (listener_) listener_(subject, alive, sim_.now());
}

void MembershipDaemon::own_entry_changed() {
  table_.apply(own_, membership::Liveness::kDirect, membership::kInvalidNode,
               sim_.now());
}

void MembershipDaemon::register_service(const std::string& name,
                                        const std::vector<int>& partitions,
                                        std::map<std::string, std::string> params) {
  edit_own([&](membership::EntryData& own) {
    for (auto& service : own.services) {
      if (service.name == name) {
        service.partitions = partitions;
        service.params = std::move(params);
        return;
      }
    }
    membership::ServiceRegistration registration;
    registration.name = name;
    registration.partitions = partitions;
    registration.params = std::move(params);
    own.services.push_back(std::move(registration));
  });
}

void MembershipDaemon::update_value(const std::string& key,
                                    const std::string& value) {
  edit_own([&](membership::EntryData& own) { own.values[key] = value; });
}

void MembershipDaemon::delete_value(const std::string& key) {
  edit_own([&](membership::EntryData& own) { own.values.erase(key); });
}

}  // namespace tamp::protocols
